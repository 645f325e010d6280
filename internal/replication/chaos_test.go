package replication

import (
	"fmt"
	"testing"
)

// TestChaosInvariants runs the seeded chaos schedules — enough ops to
// cross a kill+recover cycle and dozens of injected faults — and requires
// every invariant to hold.
func TestChaosInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos schedules take seconds")
	}
	for _, cfg := range []ChaosConfig{
		{Seed: 1, Clients: 4, Readers: 2, Ops: 300, Restarts: 1},
		{Seed: 7, Clients: 4, Readers: 2, Ops: 150, Restarts: 1},
	} {
		t.Run(fmt.Sprintf("seed%d", cfg.Seed), func(t *testing.T) {
			res, err := RunChaos(t.TempDir(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%+v", *res)
			for _, v := range res.Violations {
				t.Errorf("invariant violation: %s", v)
			}
			if res.Acked == 0 {
				t.Error("no batch was ever acknowledged")
			}
			if res.Restarts != cfg.Restarts {
				t.Errorf("completed %d restarts, want %d", res.Restarts, cfg.Restarts)
			}
			if res.Reads == 0 {
				t.Error("no read succeeded during the storm")
			}
			// The schedule must actually have injected faults, or the run
			// proves nothing.
			if res.Faults == 0 {
				t.Error("fault injector never fired")
			}
		})
	}
}
