package core

import (
	"bytes"
	"testing"

	"foam/internal/atmos"
	"foam/internal/ocean"
)

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint decoder and
// restores every decoded checkpoint onto one prebuilt reduced model.
// Malformed or mismatched input must produce an error, never a panic —
// restart chains read files that may be truncated by a killed run or
// corrupted on disk, and the ensemble API restores client-supplied bodies.
func FuzzLoadCheckpoint(f *testing.F) {
	m, err := New(ReducedConfig())
	if err != nil {
		f.Fatal(err)
	}
	defer m.Close()

	// Seed with a structurally valid (if tiny) checkpoint so the fuzzer
	// explores mutations of real gob streams, plus degenerate inputs.
	valid := &Checkpoint{
		Step: 42,
		Atm: &atmos.Snapshot{
			Step:  42,
			LnpsC: []complex128{1 + 2i},
			Q:     [][]float64{{0.001, 0.002}},
		},
		Ocn: &ocean.Snapshot{
			Step: 3,
			Eta:  []float64{0.1, -0.1},
			T:    [][]float64{{10, 11}},
		},
		LandWater: []float64{5},
	}
	var buf bytes.Buffer
	if err := valid.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	f.Add(buf.Bytes()[:buf.Len()/2]) // truncated checkpoint
	buf.Reset()
	if err := m.Checkpoint().Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes()) // a checkpoint that fits the target model

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil && c != nil {
			t.Fatalf("LoadCheckpoint returned both a checkpoint and error %v", err)
		}
		if err == nil && c == nil {
			t.Fatal("LoadCheckpoint returned nil checkpoint without error")
		}
		if c != nil {
			_ = m.Restore(c) // error or success; a panic fails the fuzz
		}
	})
}
