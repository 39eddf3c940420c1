package faultinject

import (
	"bytes"
	"reflect"
	"testing"

	"care/internal/checkpoint"
	"care/internal/machine"
	"care/internal/profiler"
	"care/internal/safeguard"
)

// armAllHooked is the retire-hook arming the campaigns used before stop
// points: one AddAfterStep hook evaluates every unfired spec after every
// retirement, which keeps the whole run on Step. It is the oracle the
// stop-point arming (armAllSeeded) must reproduce trial by trial.
func armAllHooked(cpu *machine.CPU, specs []ArmSpec, seed []uint64) []*Armed {
	backing := make([]Armed, len(specs))
	states := make([]*Armed, len(specs))
	for i := range states {
		states[i] = &backing[i]
	}
	if len(specs) == 0 {
		return states
	}
	var occ []uint64
	for i := range specs {
		if specs[i].Trigger.AtDyn == 0 {
			occ = make([]uint64, len(specs))
			copy(occ, seed)
			break
		}
	}
	live := len(specs)
	var remove func()
	remove = cpu.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		for si := range specs {
			st := states[si]
			if st.Fired {
				continue
			}
			trig := specs[si].Trigger
			triggered := false
			if trig.AtDyn > 0 {
				triggered = c.Dyn >= trig.AtDyn
			} else {
				if img.Prog.Name == trig.Image && idx == trig.StaticIdx {
					occ[si]++
				}
				triggered = occ[si] >= trig.Occurrence && occ[si] > 0
			}
			if !triggered {
				continue
			}
			kind, ok := corrupt(c, in, specs[si].Bits)
			if !ok {
				continue // no destination; try the next retiring instruction
			}
			st.Fired = true
			st.Dyn = c.Dyn
			st.Image = img.Prog.Name
			st.StaticIdx = idx
			st.Dest = kind
			live--
			if st.OnFire != nil {
				st.OnFire(c, in)
			}
		}
		if live == 0 {
			remove()
		}
	})
	return states
}

// withArming runs f with the campaigns' arming swapped for arm.
func withArming(arm func(*machine.CPU, []ArmSpec, []uint64) []*Armed, f func()) {
	saved := armSeeded
	armSeeded = arm
	defer func() { armSeeded = saved }()
	f()
}

// oracleApps are the five mini-apps the oracle comparison covers.
var oracleApps = []string{"HPCCG", "CoMD", "miniMD", "miniFE", "GTC-P"}

// TestStopPointArmingMatchesHookOracle runs the same campaign trials and
// coverage attempts with stop-point arming and with the retire-hook
// oracle, and requires identical results trial by trial: single-fault
// and multi-fault Dyn-triggered campaigns, warm-started occurrence
// triggers (pre-seeded counts), and multi-fault occurrence triggers
// under the domain-rewind chain (periodic checkpoints, rollbacks that
// rewind the clock under still-armed faults).
func TestStopPointArmingMatchesHookOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every mini-app on the Step loop")
	}
	for _, name := range oracleApps {
		bin := buildWorkload(t, name, 0, false)
		for _, tc := range []struct {
			name   string
			faults int
		}{{"single-fault", 1}, {"multi-fault", 3}} {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				c := &Campaign{App: bin, N: 40, FaultsPerTrial: tc.faults, Seed: 41, Workers: 2, Trace: true}
				prof, err := c.Prepare()
				if err != nil {
					t.Fatal(err)
				}
				got, want := campaignTrials(t, c, prof, armAllSeeded), campaignTrials(t, c, prof, armAllHooked)
				for i := range want {
					requireSameTrial(t, got[i], want[i])
				}
			})
		}
		pbin := buildWorkload(t, name, 0, true)
		t.Run(name+"/warm-occurrence", func(t *testing.T) {
			e := &CoverageExperiment{App: pbin, Trials: 8, MaxAttempts: 40, Seed: 43, Workers: 2,
				WarmStart: true, Trace: true}
			requireSameAttempts(t, e)
		})
		t.Run(name+"/rollback-chain", func(t *testing.T) {
			e := &CoverageExperiment{App: pbin, Trials: 8, MaxAttempts: 30, FaultsPerTrial: 2, Seed: 47, Workers: 2,
				Safeguard: safeguard.Config{
					InductionRecovery: true,
					Policy: safeguard.Policy{
						Rollback: true, DomainRewind: true,
						MaxTrapsPerPC: 8, StormTraps: 4,
					},
				},
				CheckpointEveryResults: 1,
				CheckpointModel:        checkpoint.DefaultCostModel(),
				Trace:                  true,
			}
			requireSameAttempts(t, e)
		})
	}
}

func campaignTrials(t *testing.T, c *Campaign, prof *profiler.Profile, arm func(*machine.CPU, []ArmSpec, []uint64) []*Armed) []TrialResult {
	t.Helper()
	var trials []TrialResult
	var err error
	withArming(arm, func() { trials, err = c.RunTrialRange(prof, 0, c.N) })
	if err != nil {
		t.Fatal(err)
	}
	return trials
}

func requireSameTrial(t *testing.T, got, want TrialResult) {
	t.Helper()
	if got.Fired != want.Fired || got.SkippedDyn != want.SkippedDyn || !reflect.DeepEqual(got.Inj, want.Inj) {
		t.Fatalf("trial %d differs from the hook oracle:\n%+v\nvs\n%+v", want.Index, got, want)
	}
	var gj, wj bytes.Buffer
	if err := got.Rec.WriteJSONL(&gj); err != nil {
		t.Fatal(err)
	}
	if err := want.Rec.WriteJSONL(&wj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj.Bytes(), wj.Bytes()) {
		t.Fatalf("trial %d trace differs from the hook oracle", want.Index)
	}
}

// requireSameAttempts runs every attempt of the experiment's budget with
// both armings and compares them field by field (wall-clock timings
// excepted).
func requireSameAttempts(t *testing.T, e *CoverageExperiment) {
	t.Helper()
	prof, err := e.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	run := func(arm func(*machine.CPU, []ArmSpec, []uint64) []*Armed) []AttemptResult {
		var atts []AttemptResult
		withArming(arm, func() { atts, err = e.RunAttemptRange(prof, 0, e.AttemptBudget()) })
		if err != nil {
			t.Fatal(err)
		}
		return atts
	}
	got, want := run(armAllSeeded), run(armAllHooked)
	counted := 0
	for i := range want {
		g, w := got[i], want[i]
		if g.Counted {
			counted++
		}
		if g.Index != w.Index || g.Counted != w.Counted || g.Recovered != w.Recovered || g.Clean != w.Clean ||
			g.Activations != w.Activations || g.Failure != w.Failure || !reflect.DeepEqual(g.Rec, w.Rec) {
			t.Fatalf("attempt %d differs from the hook oracle:\n%+v\nvs\n%+v", i, g, w)
		}
		if len(g.Events) != len(w.Events) {
			t.Fatalf("attempt %d: %d events, oracle %d", i, len(g.Events), len(w.Events))
		}
		for j := range w.Events {
			ge, we := g.Events[j], w.Events[j]
			if ge.PC != we.PC || ge.Addr != we.Addr || ge.Outcome != we.Outcome || ge.Domain != we.Domain {
				t.Fatalf("attempt %d event %d: %+v, oracle %+v", i, j, ge, we)
			}
		}
		if (g.Trace == nil) != (w.Trace == nil) {
			t.Fatalf("attempt %d: trace presence differs from the oracle", i)
		}
		if w.Trace != nil {
			requireTraceSkeletonEqual(t, g.Trace, w.Trace)
		}
	}
	if counted == 0 {
		t.Fatal("no attempt raised a SIGSEGV Safeguard saw; the comparison is vacuous")
	}
}
