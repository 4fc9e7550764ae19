package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// TestCheckpointGolden is the determinism referee for refactors of the
// numerics: 30 coupled steps followed by a gob checkpoint must hash to the
// recorded SHA-256, for the reduced and the paper configuration, serial
// and pooled. A change that moves these hashes changes the trajectory and
// must say why.
//
// The hashes are pinned on amd64 only: gc may fuse multiply-add on other
// architectures, which legitimately changes the low bits.
func TestCheckpointGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded for amd64, not %s", runtime.GOARCH)
	}
	const steps = 30
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"reduced", ReducedConfig(), "bac8e75e1ba8b34b751d3b6dfe894e74e2e5bd58ac5750a4e8bba0c10c44f9f3"},
		{"paper-foam", DefaultConfig(), "f5199a045e49c4badedc6668830f6fc6997a777f11fbf9227510638abcf1a77e"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Workers = workers
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				for i := 0; i < steps; i++ {
					m.Step()
				}
				var buf bytes.Buffer
				if err := m.Checkpoint().Save(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != tc.want {
					t.Fatalf("checkpoint SHA-256 after %d steps = %s, want %s", steps, got, tc.want)
				}
			})
		}
	}
}
