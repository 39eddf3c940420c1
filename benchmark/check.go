package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"care/internal/core"
	"care/internal/faultinject"
	"care/internal/interp"
	"care/internal/machine"
	"care/internal/workloads"
)

// The checks below never trust the code under test to grade itself.
// Reference result streams come from internal/interp, which executes
// the IR module directly and shares neither the compiler nor the
// machine with the binaries being checked. Campaign trials are
// re-derived from the public trial seed and replayed one at a time on
// the plain cold path (core.NewProcess + faultinject.Arm, no warm start,
// store or shard), then classified against that reference.

// hangFactor is the campaigns' default hang budget (HangFactor 0 = 4x
// the golden instruction count); replays use the same budget.
const hangFactor = 4

// interpStepLimit bounds the reference interpreter run.
const interpStepLimit = 1 << 32

// reference is the fault-free behaviour of one binary: the interp
// result stream of its source module, plus the dynamic instruction
// count, exit code and per-instruction execution counts of a plain run
// of the binary, whose results were checked against the interp stream.
type reference struct {
	Results  []float64
	TotalDyn uint64
	ExitCode uint64
	Counts   []uint64
	// mallocStatic holds the app image's instructions that pass a size
	// to a simulated malloc (the mallocWindow instructions up to each
	// malloc host call); mallocDyn the golden-run retirements of them.
	mallocStatic map[int]bool
	mallocDyn    map[uint64]bool
}

// mallocWindow is how many instructions before a malloc host call are
// taken to carry its size argument.
const mallocWindow = 16

// mallocSizeInstrs returns the instructions of prog that may carry a
// malloc size: each malloc host call and up to mallocWindow
// instructions before it in its straight-line block, stopping at a
// branch, call, return, other host call, jump target or function entry.
func mallocSizeInstrs(prog *machine.Program) map[int]bool {
	boundary := map[int]bool{}
	for _, f := range prog.Funcs {
		boundary[f.Entry] = true
	}
	for _, in := range prog.Code {
		switch in.Op {
		case machine.MJmp, machine.MJnz, machine.MJz:
			if t := prog.IndexOf(in.Target); t >= 0 {
				boundary[t] = true
			}
		}
	}
	set := map[int]bool{}
	for k, in := range prog.Code {
		if in.Op != machine.MHost || in.Host != "malloc" {
			continue
		}
		set[k] = true
	walk:
		for j := k - 1; j >= 0 && j >= k-mallocWindow && !boundary[j+1]; j-- {
			switch prog.Code[j].Op {
			case machine.MJmp, machine.MJnz, machine.MJz, machine.MCall, machine.MRet,
				machine.MHost, machine.MAbort, machine.MHalt:
				break walk
			}
			set[j] = true
		}
	}
	return set
}

// interpResults interprets a fresh copy of the workload's default
// module.
func interpResults(name string) ([]float64, error) {
	w, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	res, err := interp.Run(interpStepLimit, w.Module(workloads.Params{}))
	if err != nil {
		return nil, fmt.Errorf("interp %s: %w", name, err)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("interp %s: empty result stream", name)
	}
	return res, nil
}

// newReference runs bin once fault-free (with Safeguard attached when
// protected) and checks that its result stream equals want bit for bit.
func newReference(bin *core.Binary, want []float64) (*reference, error) {
	p, err := core.NewProcess(core.ProcessConfig{App: bin, Protected: bin.Protected()})
	if err != nil {
		return nil, err
	}
	ref := &reference{Results: want, mallocStatic: mallocSizeInstrs(bin.Prog), mallocDyn: map[uint64]bool{}}
	p.CPU.Profile = true
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, _ *machine.MInstr) {
		if img == p.App && ref.mallocStatic[idx] {
			ref.mallocDyn[c.Dyn] = true
		}
	})
	if st := p.Run(0); st != machine.StatusExited {
		return nil, fmt.Errorf("%s O%d golden run: %v (trap %v)", bin.Name, bin.Prog.OptLevel, st, p.CPU.PendingTrap)
	}
	if err := sameBits(p.Results(), want); err != nil {
		return nil, fmt.Errorf("%s O%d golden results differ from interp: %w", bin.Name, bin.Prog.OptLevel, err)
	}
	ref.TotalDyn, ref.ExitCode = p.CPU.Dyn, p.CPU.ExitCode
	ref.Counts = p.CPU.Counts[p.App]
	return ref, nil
}

// Operations left out. A fault that corrupts the size passed to the
// simulated malloc can make the simulated heap map a slice of many GiB,
// and the Go runtime then kills the whole process ("fatal error:
// runtime: out of memory") instead of the trial ending as a simulated
// fault. Such a trial cannot be counted as failed, since it takes the
// run down with it, so the benchmark leaves it out: a campaign or
// coverage seed with any operation aimed at a malloc size is skipped
// for the next seed of its sequence. Trials and attempts are re-derived
// from the public trial seed exactly as the library draws them.

// campaignTouchesMalloc reports whether any of the n trials of a
// single-bit campaign with the given seed fires at a malloc-size
// instruction.
func (r *reference) campaignTouchesMalloc(seed int64, n int) bool {
	for i := 0; i < n; i++ {
		if target, _ := trialInjection(seed, i, r.TotalDyn); r.mallocDyn[target] {
			return true
		}
	}
	return false
}

// coverageTouchesMalloc reports whether any attempt in [0, budget) of a
// single-fault coverage experiment on the app image draws a
// malloc-size instruction. The draw is the experiment's: a uniformly
// random retirement of the golden run, mapped to its static instruction
// through the execution counts.
func (r *reference) coverageTouchesMalloc(seed int64, budget int) bool {
	cum := make([]uint64, len(r.Counts)+1)
	for i, c := range r.Counts {
		cum[i+1] = cum[i] + c
	}
	total := cum[len(r.Counts)]
	for i := 0; i < budget; i++ {
		rng := rand.New(rand.NewSource(faultinject.TrialSeed(seed, uint64(i))))
		x := uint64(rng.Int63n(int64(total)))
		idx := sort.Search(len(r.Counts), func(j int) bool { return cum[j+1] > x })
		if r.mallocStatic[idx] {
			return true
		}
	}
	return false
}

// maxScreenedSeeds bounds the seeds screenedSeed tries.
const maxScreenedSeeds = 1000

// screenedSeed returns the first seed of the sequence TrialSeed(base,
// k), k = 0, 1, ..., for which touches reports false.
func screenedSeed(base int64, touches func(seed int64) bool) (int64, error) {
	for k := uint64(0); k < maxScreenedSeeds; k++ {
		if s := faultinject.TrialSeed(base, k); !touches(s) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("no seed of %d based at %d keeps clear of malloc sizes", maxScreenedSeeds, base)
}

// sameBits compares two result streams bit for bit (NaN payloads
// included).
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("result[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// replayed is the cold-path verdict on one campaign trial.
type replayed struct {
	TargetDyn uint64
	Bit       int
	Outcome   faultinject.Outcome
	Signal    machine.Signal
}

// trialInjection re-derives the injection of trial i of a single-bit
// campaign with the given seed over a golden run of totalDyn
// instructions, drawing from the public trial seed exactly as
// Campaign does: the dynamic instruction after which the bit flips, and
// the bit.
func trialInjection(seed int64, i int, totalDyn uint64) (uint64, int) {
	rng := rand.New(rand.NewSource(faultinject.TrialSeed(seed, uint64(i))))
	target := uint64(rng.Int63n(int64(totalDyn))) + 1
	return target, rng.Intn(64)
}

// replayTrial re-derives trial i of a single-bit campaign with the given
// seed from the public trial seed, runs it on a fresh cold process and
// classifies it against ref.
func replayTrial(bin *core.Binary, ref *reference, seed int64, i int) (replayed, error) {
	var r replayed
	r.TargetDyn, r.Bit = trialInjection(seed, i, ref.TotalDyn)
	p, err := core.NewProcess(core.ProcessConfig{App: bin})
	if err != nil {
		return r, err
	}
	faultinject.Arm(p.CPU, faultinject.Trigger{AtDyn: r.TargetDyn}, []int{r.Bit})
	switch st := p.Run(hangFactor * ref.TotalDyn); st {
	case machine.StatusTrapped:
		r.Outcome, r.Signal = faultinject.SoftFailure, p.CPU.PendingTrap.Sig
	case machine.StatusExited:
		r.Outcome = faultinject.SDC
		if sameBits(p.Results(), ref.Results) == nil && p.CPU.ExitCode == ref.ExitCode {
			r.Outcome = faultinject.Benign
		}
	case machine.StatusLimit:
		r.Outcome = faultinject.Hang
	default:
		return r, fmt.Errorf("replay of trial %d: unexpected status %v", i, st)
	}
	return r, nil
}

// checkCampaign checks one campaign result: its outcomes sum to N, and
// each sampled trial, replayed on the cold path, reproduces the recorded
// injection point, bit and outcome (and signal, for soft failures).
func checkCampaign(bin *core.Binary, ref *reference, seed int64, res *faultinject.CampaignResult, sample []int) error {
	sum := 0
	for _, n := range res.Outcomes {
		sum += n
	}
	if sum != res.N || len(res.Injections) != res.N {
		return fmt.Errorf("%s seed %d: outcomes sum to %d over %d injections, want %d", bin.Name, seed, sum, len(res.Injections), res.N)
	}
	if res.GoldenDyn != ref.TotalDyn {
		return fmt.Errorf("%s seed %d: campaign golden run retired %d instructions, reference %d", bin.Name, seed, res.GoldenDyn, ref.TotalDyn)
	}
	for _, i := range sample {
		got := res.Injections[i]
		want, err := replayTrial(bin, ref, seed, i)
		if err != nil {
			return err
		}
		if got.TargetDyn != want.TargetDyn || len(got.Bits) != 1 || got.Bits[0] != want.Bit {
			return fmt.Errorf("%s seed %d trial %d: recorded injection (dyn %d, bits %v), replay derives (dyn %d, bit %d)",
				bin.Name, seed, i, got.TargetDyn, got.Bits, want.TargetDyn, want.Bit)
		}
		if got.Outcome != want.Outcome {
			return fmt.Errorf("%s seed %d trial %d: recorded %v, cold replay %v", bin.Name, seed, i, got.Outcome, want.Outcome)
		}
		if got.Outcome == faultinject.SoftFailure && got.Signal != want.Signal {
			return fmt.Errorf("%s seed %d trial %d: recorded signal %v, cold replay %v", bin.Name, seed, i, got.Signal, want.Signal)
		}
	}
	return nil
}

// sampleTrials draws k distinct trial indices of [0, n) from rng, in
// ascending order.
func sampleTrials(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	idx := rng.Perm(n)[:k]
	sort.Ints(idx)
	return idx
}
