package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// A restart chain must reproduce the uninterrupted run exactly: run A for
// 2 days; run B for 1 day, checkpoint, restore into a fresh model, run the
// second day; compare final states bit-for-bit.
func TestRestartReproducesRun(t *testing.T) {
	cfg := ReducedConfig()

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.StepDays(2)

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.StepDays(1)
	chk := b.Checkpoint()

	// Round-trip through the gob encoding too.
	var buf bytes.Buffer
	if err := chk.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	if c.StepCount() != b.StepCount() {
		t.Fatalf("restored step %d want %d", c.StepCount(), b.StepCount())
	}
	c.StepDays(1)

	// Compare final SST and atmosphere diagnostics exactly.
	sa, sc := a.SST(), c.SST()
	for i := range sa {
		if sa[i] != sc[i] {
			t.Fatalf("SST differs at %d after restart: %v vs %v (d=%e)",
				i, sa[i], sc[i], sa[i]-sc[i])
		}
	}
	da, dc := a.Diagnostics(), c.Diagnostics()
	if da.Atm.MeanT != dc.Atm.MeanT || da.Atm.MeanPs != dc.Atm.MeanPs {
		t.Fatalf("atmosphere diagnostics differ: %+v vs %+v", da.Atm, dc.Atm)
	}
	if math.Abs(da.Ocn.MeanSST-dc.Ocn.MeanSST) != 0 {
		t.Fatalf("ocean diagnostics differ: %v vs %v", da.Ocn.MeanSST, dc.Ocn.MeanSST)
	}
}

func TestCheckpointRejectsIncomplete(t *testing.T) {
	m, err := New(ReducedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(&Checkpoint{}); err == nil {
		t.Fatal("expected error for empty checkpoint")
	}
}

// TestRestoreRefusesOtherConfig: a checkpoint from another configuration
// (reduced onto paper-size and the reverse), or one with a negative step
// that the next Step would index the program with, is refused with an
// error wrapping ErrConfig — no panic, no truncating copy — and the target
// model is left exactly as it was.
func TestRestoreRefusesOtherConfig(t *testing.T) {
	reduced, err := New(ReducedConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer reduced.Close()
	full, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	reduced.Step()
	full.Step()

	save := func(m *Model) []byte {
		var buf bytes.Buffer
		if err := m.Checkpoint().Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	negative := reduced.Checkpoint()
	negative.Step = -1
	for _, tc := range []struct {
		name string
		chk  *Checkpoint
		to   *Model
	}{
		{"reduced onto default", reduced.Checkpoint(), full},
		{"default onto reduced", full.Checkpoint(), reduced},
		{"negative step", negative, reduced},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := save(tc.to)
			err := tc.to.Restore(tc.chk)
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("Restore = %v, want an error wrapping ErrConfig", err)
			}
			if !bytes.Equal(before, save(tc.to)) {
				t.Fatal("refused restore modified the model")
			}
		})
	}
}
