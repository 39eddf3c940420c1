package main

import (
	"fmt"
	"time"

	"care/internal/checkpoint"
	"care/internal/core"
	"care/internal/experiments"
	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/safeguard"
)

// chainSpec is the study's domain-rewind escalation chain: kernel →
// induction → domain rewind → rollback, with a checkpoint after every
// result value.
var chainSpec = experiments.DomainRewindSpec(safeguard.Policy{})

// protectedTarget is one CARE-protected build a coverage experiment
// runs against, with the number of SIGSEGV trials it examines.
type protectedTarget struct {
	bin    *core.Binary
	ref    *reference
	trials int
}

// coverage is the experiment recover-chain times: the requested SIGSEGV
// trials on t under the domain-rewind chain, recovered injections
// recorded for replay.
func coverage(t protectedTarget, seed int64) *faultinject.CoverageExperiment {
	return &faultinject.CoverageExperiment{
		App:                    t.bin,
		Trials:                 t.trials,
		Seed:                   seed,
		Safeguard:              chainSpec.Safeguard,
		CheckpointEveryResults: chainSpec.CheckpointEveryResults,
		CheckpointModel:        chainSpec.CheckpointModel,
		RecordInjections:       true,
		Workers:                trialWorkers,
	}
}

// seed is the coverage seed for t in the sequence based at base,
// leaving out seeds with attempts aimed at a malloc size (see
// screenedSeed).
func (t protectedTarget) seed(base int64) (int64, error) {
	return screenedSeed(base, func(s int64) bool {
		return t.ref.coverageTouchesMalloc(s, coverage(t, s).AttemptBudget())
	})
}

// checkCoverage checks a coverage result: the requested SIGSEGV trials
// were examined and every clean recovery was recorded for replay.
func checkCoverage(t protectedTarget, res *faultinject.CoverageResult) error {
	if res.SigsegvTrials != t.trials {
		return fmt.Errorf("%s O%d: examined %d SIGSEGV trials, requested %d", t.bin.Name, t.bin.Prog.OptLevel, res.SigsegvTrials, t.trials)
	}
	if res.Recovered > res.SigsegvTrials || res.CleanRecovered > res.Recovered {
		return fmt.Errorf("%s O%d: %d recovered (%d clean) of %d examined", t.bin.Name, t.bin.Prog.OptLevel, res.Recovered, res.CleanRecovered, res.SigsegvTrials)
	}
	if len(res.RecoveredInjections) != res.CleanRecovered {
		return fmt.Errorf("%s O%d: %d recorded injections for %d clean recoveries", t.bin.Name, t.bin.Prog.OptLevel, len(res.RecoveredInjections), res.CleanRecovered)
	}
	return nil
}

// Activation classes of a timed handler call, read from the safeguard's
// outcome counters around the call.
const (
	actRepair   = "repair"
	actRewind   = "rewind"
	actRollback = "rollback"
	actOther    = "other"
)

// recoverySamples accumulates the timed Safeguard activations of
// replayed recovered injections.
type recoverySamples struct {
	// handlerUS holds one wall time per call into the trap handler.
	handlerUS []float64
	// byClass splits handlerUS by what the activation did.
	byClass map[string][]float64
	// events are the safeguard's own activation records, for the
	// per-phase medians.
	events []safeguard.Event
	// replays counts replayed injections; saves/restores total their
	// checkpoint-store traffic.
	replays, saves, restores int
	// machine holds the split process/pre-fault/post-fault timings of
	// the replays (traced runs only read it).
	machine []machineSample
}

func newRecoverySamples() *recoverySamples {
	return &recoverySamples{byClass: map[string][]float64{}}
}

// replayRecovered replays one recovered injection on a fresh protected
// process configured exactly like the coverage attempt that recorded it
// (checkpoint store and cadence included), timing every call into the
// trap handler Safeguard installed. The replay must exit with at least
// one activation and output equal to the reference.
func replayRecovered(t protectedTarget, ri faultinject.RecordedInjection, s *recoverySamples) error {
	var sample machineSample
	a0 := totalAlloc()
	t0 := time.Now()
	p, err := core.NewProcess(core.ProcessConfig{
		App: t.bin, Protected: true, Safeguard: chainSpec.Safeguard,
		Checkpoint:             checkpoint.NewStore(chainSpec.CheckpointModel),
		CheckpointEveryResults: chainSpec.CheckpointEveryResults,
	})
	if err != nil {
		return err
	}
	sample.process = time.Since(t0)
	rec := p.SG.Trace()
	counts := func() [3]int64 {
		return [3]int64{
			rec.Counter(safeguard.CounterRecovered),
			rec.Counter(safeguard.CounterDomainRewinds),
			rec.Counter(safeguard.CounterRolledBack),
		}
	}
	inner := p.CPU.Handler
	calls := 0
	p.CPU.Handler = func(c *machine.CPU, tr *machine.Trap) machine.TrapAction {
		before := counts()
		h0 := time.Now()
		act := inner(c, tr)
		us := micros(time.Since(h0))
		after := counts()
		class := actOther
		switch {
		case after[0] > before[0]:
			class = actRepair
		case after[1] > before[1]:
			class = actRewind
		case after[2] > before[2]:
			class = actRollback
		}
		s.handlerUS = append(s.handlerUS, us)
		s.byClass[class] = append(s.byClass[class], us)
		calls++
		return act
	}
	armed := faultinject.Arm(p.CPU, ri.Trigger, ri.Bits)
	start := time.Now()
	armed.OnFire = func(c *machine.CPU, _ *machine.MInstr) {
		sample.pre = time.Since(start)
		sample.preDyn = c.Dyn
	}
	status := p.Run(hangFactor * t.ref.TotalDyn)
	sample.post = time.Since(start) - sample.pre
	sample.postDyn = p.CPU.Dyn - sample.preDyn
	sample.alloc = totalAlloc() - a0
	name := fmt.Sprintf("%s O%d replay of %+v bits %v", t.bin.Name, t.bin.Prog.OptLevel, ri.Trigger, ri.Bits)
	if status != machine.StatusExited {
		return fmt.Errorf("%s: %v (trap %v), want a recovered exit", name, status, p.CPU.PendingTrap)
	}
	if !armed.Fired {
		return fmt.Errorf("%s: the fault never fired", name)
	}
	if calls == 0 {
		return fmt.Errorf("%s: exited without a Safeguard activation", name)
	}
	if err := sameBits(p.Results(), t.ref.Results); err != nil {
		return fmt.Errorf("%s: output differs from interp: %w", name, err)
	}
	s.events = append(s.events, p.SG.Events()...)
	s.replays++
	s.saves += p.Store.Saves()
	s.restores += p.Store.Restores()
	s.machine = append(s.machine, sample)
	return nil
}

// latency turns the handler samples into the two end-to-end
// recovery metrics.
func (s *recoverySamples) latency() (p50, p90 float64, err error) {
	if p50, err = median(s.handlerUS); err != nil {
		return 0, 0, fmt.Errorf("recovery latency: %w", err)
	}
	if p90, err = tailP90(s.handlerUS); err != nil {
		return 0, 0, fmt.Errorf("recovery latency: %w", err)
	}
	return p50, p90, nil
}

// Recovery probe. The campaign workloads run no Safeguard, yet every
// workload reports the recovery metrics, so each of them carries the
// same fixed probe: recovered injections of the O1 protected HPCCG and
// miniMD builds, found before the timed phase with a fixed seed
// (independent of --seed), replayed once after every timed round so the
// samples span the run, and topped up after the last round until
// probeSamples activations were timed.
const (
	probeSeed    = 1
	probeSamples = 3 * minTailSamples
)

// probeTargets are the probe's builds and SIGSEGV trial counts.
var probeTargets = []struct {
	name   string
	trials int
}{{"HPCCG", 24}, {"miniMD", 8}}

// recoveryProbe is the prepared probe: its targets and their recovered
// injections.
type recoveryProbe struct {
	targets []protectedTarget
	injs    [][]faultinject.RecordedInjection
	samples *recoverySamples
}

// newRecoveryProbe builds the probe's targets and finds their recovered
// injections.
func newRecoveryProbe(refs *refCache) (*recoveryProbe, error) {
	pr := &recoveryProbe{samples: newRecoverySamples()}
	for _, pt := range probeTargets {
		bin, err := experiments.BuildWorkload(pt.name, defaultParams, 1, careDefense)
		if err != nil {
			return nil, err
		}
		ref, err := refs.reference(pt.name, bin)
		if err != nil {
			return nil, err
		}
		t := protectedTarget{bin: bin, ref: ref, trials: pt.trials}
		seed, err := t.seed(probeSeed)
		if err != nil {
			return nil, err
		}
		res, err := coverage(t, seed).Run()
		if err != nil {
			return nil, fmt.Errorf("recovery probe %s: %w", pt.name, err)
		}
		if err := checkCoverage(t, res); err != nil {
			return nil, fmt.Errorf("recovery probe: %w", err)
		}
		if len(res.RecoveredInjections) == 0 {
			return nil, fmt.Errorf("recovery probe %s: no recovered injection to replay", pt.name)
		}
		pr.targets = append(pr.targets, t)
		pr.injs = append(pr.injs, res.RecoveredInjections)
	}
	return pr, nil
}

// replayDue replays every probe injection once when fewer than the
// share done of probeSamples have been timed.
func (pr *recoveryProbe) replayDue(done float64) error {
	if float64(len(pr.samples.handlerUS)) >= done*probeSamples {
		return nil
	}
	return pr.replay()
}

// replay replays every probe injection once.
func (pr *recoveryProbe) replay() error {
	for i, t := range pr.targets {
		for _, ri := range pr.injs[i] {
			if err := replayRecovered(t, ri, pr.samples); err != nil {
				return fmt.Errorf("recovery probe: %w", err)
			}
		}
	}
	return nil
}

// finish tops the samples up to probeSamples and returns them.
func (pr *recoveryProbe) finish() (*recoverySamples, error) {
	for len(pr.samples.handlerUS) < probeSamples {
		if err := pr.replay(); err != nil {
			return nil, err
		}
	}
	return pr.samples, nil
}
