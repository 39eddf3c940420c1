package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"care/internal/core"
	"care/internal/experiments"
	"care/internal/faultinject"
	"care/internal/parallel"
	"care/internal/shard"
	"care/internal/store"
	"care/internal/workloads"
)

// Workload names.
const (
	wlCold    = "campaign-cold"
	wlWarm    = "campaign-warm-store"
	wlRecover = "recover-chain"
	wlSharded = "campaign-sharded"
)

var workloadNames = []string{wlCold, wlWarm, wlRecover, wlSharded}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// Workload make-up.
var (
	// campaignApps are the five evaluated mini-apps, run at their
	// default parameters.
	campaignApps  = []string{"HPCCG", "CoMD", "miniMD", "miniFE", "GTC-P"}
	defaultParams = workloads.Params{}
	careDefense   = []string{"care"}
	// recoverTargets are recover-chain's protected builds with their
	// SIGSEGV trial counts per round. HPCCG attempts cost about a third
	// of miniMD's, so HPCCG examines three times as many trials and each
	// app gets a similar share of the round; the activation mix (about
	// 70% HPCCG) keeps the pooled median inside the HPCCG cluster and
	// the p90 inside the miniMD one instead of in the gap between them.
	recoverTargets = []struct {
		name   string
		opt    int
		trials int
	}{{"HPCCG", 0, 24}, {"HPCCG", 1, 24}, {"miniMD", 0, 8}, {"miniMD", 1, 8}}
)

const (
	// trialsPerCampaign is N of every timed campaign; warmupTrials of
	// the untimed warm-up ones.
	trialsPerCampaign = 50
	warmupTrials      = 20
	// checkSample trials of every campaign are replayed on the cold
	// path.
	checkSample = 4
	// Set-up runs at least minSetupRepeats times and then again until
	// setupBudget has been spent or maxSetupRepeats reached; setup_s is
	// the median.
	minSetupRepeats = 3
	maxSetupRepeats = 15
	setupBudget     = 2 * time.Second
	// trialWorkers is the trial goroutine count of every campaign and
	// coverage experiment (per shard on campaign-sharded). One goroutine
	// leaves the second CPU of a two-CPU machine to the Go runtime and
	// the coordinator; on a shared two-vCPU host it held
	// block-to-block throughput within about 5%, where two goroutines
	// spread about 14%.
	trialWorkers = 1
	// shardCount is campaign-sharded's number of worker subprocesses.
	shardCount = 2
)

// roundSeed is the base seed of timed round r (r >= 0); the warm-up
// round uses r = -1. Each campaign of the round draws its own seed from
// the base (campaignApp.seed, protectedTarget.seed), so every round
// draws fresh trials and a run averages over several trial sets.
func roundSeed(seed int64, r int) int64 {
	return faultinject.TrialSeed(seed, uint64(r+1))
}

// bench is one run's state and accounting.
type bench struct {
	opts options
	// tmp is the run's temporary directory, removed when it ends.
	tmp string
	// shardArgv starts this binary as a shard worker.
	shardArgv []string
	refs      *refCache

	// Timed-phase accounting.
	injections int
	failed     int
	timed      time.Duration
	alloc      allocMeter
	problems   []string

	// setup holds every set-up repetition's wall time.
	setup []time.Duration
	// workerPeakKB is the largest summed peak RSS of one sharded
	// campaign's workers.
	workerPeakKB uint64

	// layers collects per-layer figures in traced runs (nil otherwise).
	layers *layerTrace
}

// moreSetup reports whether set-up should run again.
func (b *bench) moreSetup() bool {
	var spent time.Duration
	for _, d := range b.setup {
		spent += d
	}
	n := len(b.setup)
	return n < minSetupRepeats || (n < maxSetupRepeats && spent < setupBudget)
}

// fail records a failed check or call and the operations it covers.
func (b *bench) fail(ops int, err error) {
	b.failed += ops
	b.problems = append(b.problems, err.Error())
	fmt.Fprintln(os.Stderr, "carebench: check failed:", err)
}

// run executes one benchmark run and returns its report.
func run(opts options) (*report, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if tmp, err = filepath.Abs(tmp); err != nil {
		return nil, err
	}
	// Shard workers write their accounting to tmp/workers.
	if err := os.Mkdir(filepath.Join(tmp, "workers"), 0o755); err != nil {
		return nil, err
	}
	shardArgv, err := workerArgv(filepath.Join(tmp, "workers"))
	if err != nil {
		return nil, err
	}
	b := &bench{opts: opts, tmp: tmp, shardArgv: shardArgv, refs: newRefCache()}
	if opts.trace {
		b.layers = newLayerTrace()
	}
	var rec *recoverySamples
	switch opts.workload {
	case wlRecover:
		rec, err = b.recoverChain()
	default:
		rec, err = b.campaigns(opts.workload)
	}
	if err != nil {
		return nil, err
	}
	if b.injections == 0 {
		return nil, fmt.Errorf("no injection was attempted")
	}
	rep := &report{
		Correct:   len(b.problems) == 0,
		Attempted: b.injections,
		Failed:    b.failed,
	}
	e2e, err := b.endToEnd(rec)
	if err != nil {
		return nil, err
	}
	if b.layers == nil {
		rep.Metrics = e2e
		return rep, nil
	}
	for name, m := range e2e {
		fmt.Fprintf(os.Stderr, "carebench: traced %s = %.4f %s\n", name, m.Value, m.Unit)
	}
	rep.Metrics = b.layers.metrics(rec)
	return rep, nil
}

// endToEnd computes the end-to-end metrics.
func (b *bench) endToEnd(rec *recoverySamples) (map[string]metric, error) {
	setupS := make([]float64, len(b.setup))
	for i, d := range b.setup {
		setupS[i] = d.Seconds()
	}
	setup, err := median(setupS)
	if err != nil {
		return nil, fmt.Errorf("setup time: %w", err)
	}
	p50, p90, err := rec.latency()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSKB()
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":                {setup, "s"},
		"injections_per_s":       {float64(b.injections) / b.timed.Seconds(), "1/s"},
		"recovery_us_p50":        {p50, "us"},
		"recovery_us_p90":        {p90, "us"},
		"alloc_kb_per_injection": {b.alloc.kbPer(b.injections), "kB"},
		"peak_rss_mb":            {float64(rss+b.workerPeakKB) / 1024, "MB"},
	}, nil
}

// refCache computes each app's interp reference once per run.
type refCache struct{ interp map[string][]float64 }

func newRefCache() *refCache { return &refCache{interp: map[string][]float64{}} }

// reference checks bin (a build of the named app) against the interp
// result stream and returns its reference.
func (r *refCache) reference(name string, bin *core.Binary) (*reference, error) {
	want, ok := r.interp[name]
	if !ok {
		var err error
		if want, err = interpResults(name); err != nil {
			return nil, err
		}
		r.interp[name] = want
	}
	return newReference(bin, want)
}

// campaignApp is one app of a campaign workload.
type campaignApp struct {
	name string
	bin  *core.Binary
	ref  *reference
	key  store.Key
}

// seed is the campaign seed for an n-trial campaign of a in the
// sequence based at base, leaving out seeds with trials aimed at a
// malloc size (see screenedSeed).
func (a *campaignApp) seed(base int64, n int) (int64, error) {
	return screenedSeed(base, func(s int64) bool { return a.ref.campaignTouchesMalloc(s, n) })
}

// campaignSetup builds the apps and, for the warm workloads, fills a
// fresh store at dir with each app's golden profile and snapshots
// through the public Prepare path (a store miss).
func (b *bench) campaignSetup(workload, dir string) ([]*campaignApp, *store.Store, error) {
	t0 := time.Now()
	apps := make([]*campaignApp, len(campaignApps))
	for i, name := range campaignApps {
		tb := time.Now()
		bin, err := experiments.BuildWorkload(name, defaultParams, 0, nil)
		if err != nil {
			return nil, nil, err
		}
		b.layers.build(time.Since(tb))
		apps[i] = &campaignApp{name: name, bin: bin,
			key: experiments.CampaignKey("campaign", name, defaultParams, 0, nil, b.opts.seed, experiments.StudyOptions{WarmStart: true})}
	}
	var st *store.Store
	if workload != wlCold {
		var err error
		if st, err = store.Open(dir); err != nil {
			return nil, nil, err
		}
		for _, a := range apps {
			if _, err := b.newCampaign(a, workload, st, 0, 1).Prepare(); err != nil {
				return nil, nil, fmt.Errorf("fill store for %s: %w", a.name, err)
			}
		}
		if n := st.Counter(store.CounterGoldenMisses); n != int64(len(apps)) {
			return nil, nil, fmt.Errorf("store fill: %d golden misses, want %d", n, len(apps))
		}
	}
	b.setup = append(b.setup, time.Since(t0))
	return apps, st, nil
}

// newCampaign configures one campaign of the workload the way a user
// would: cold, warm-started against the store, or sharded over worker
// subprocesses sharing the store.
func (b *bench) newCampaign(a *campaignApp, workload string, st *store.Store, seed int64, n int) *faultinject.Campaign {
	c := &faultinject.Campaign{App: a.bin, N: n, Seed: seed, Workers: trialWorkers}
	if workload != wlCold {
		c.WarmStart, c.Store, c.StoreKey = true, st, a.key
	}
	if workload == wlSharded {
		c.Shards, c.ShardExec = shardCount, b.shardArgv
	}
	return c
}

// campaigns runs a campaign workload: set-up, references, one warm-up
// round, then timed rounds of one campaign per app until the timed
// phase reaches --seconds; every campaign is checked after it ran.
func (b *bench) campaigns(workload string) (*recoverySamples, error) {
	var apps []*campaignApp
	var st *store.Store
	for k := 0; b.moreSetup(); k++ {
		dir := filepath.Join(b.tmp, fmt.Sprintf("store-%d", k))
		var err error
		if apps, st, err = b.campaignSetup(workload, dir); err != nil {
			return nil, err
		}
		if k > 0 {
			if err := os.RemoveAll(filepath.Join(b.tmp, fmt.Sprintf("store-%d", k-1))); err != nil {
				return nil, err
			}
		}
	}
	for _, a := range apps {
		ref, err := b.refs.reference(a.name, a.bin)
		if err != nil {
			return nil, err
		}
		a.ref = ref
		if st != nil {
			if err := checkStoredProfile(st, a); err != nil {
				return nil, err
			}
		}
	}
	probe, err := newRecoveryProbe(b.refs)
	if err != nil {
		return nil, err
	}
	// Warm-up: one untimed campaign per app, so one-time work (predecode,
	// first-touch pages, heap growth) stays out of the timed phase.
	for _, a := range apps {
		seed, err := a.seed(roundSeed(b.opts.seed, -1), warmupTrials)
		if err != nil {
			return nil, err
		}
		if _, err := b.campaign(a, workload, st, seed, warmupTrials, false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	budget := time.Duration(b.opts.seconds) * time.Second
	for r := 0; r == 0 || b.timed < budget; r++ {
		base := roundSeed(b.opts.seed, r)
		rng := rand.New(rand.NewSource(base))
		for _, a := range apps {
			seed, err := a.seed(base, trialsPerCampaign)
			if err != nil {
				return nil, err
			}
			res, err := b.campaign(a, workload, st, seed, trialsPerCampaign, true)
			if err != nil {
				b.fail(trialsPerCampaign, err)
				continue
			}
			if err := checkCampaign(a.bin, a.ref, seed, res, sampleTrials(rng, trialsPerCampaign, checkSample)); err != nil {
				b.fail(trialsPerCampaign, err)
			}
		}
		if err := probe.replayDue(b.timed.Seconds() / budget.Seconds()); err != nil {
			return nil, err
		}
	}
	if b.layers != nil {
		if err := b.layers.campaignLayers(b, apps, st, workload); err != nil {
			return nil, err
		}
	}
	return probe.finish()
}

// checkStoredProfile checks that the store's copy of an app's golden
// profile matches the reference.
func checkStoredProfile(st *store.Store, a *campaignApp) error {
	prof, err := st.GetProfile(a.key)
	if err != nil || prof == nil {
		return fmt.Errorf("%s: stored profile unreadable after fill: %v", a.name, err)
	}
	if prof.TotalDyn != a.ref.TotalDyn {
		return fmt.Errorf("%s: stored golden run retired %d instructions, reference %d", a.name, prof.TotalDyn, a.ref.TotalDyn)
	}
	if err := sameBits(prof.Golden, a.ref.Results); err != nil {
		return fmt.Errorf("%s: stored golden results differ from interp: %w", a.name, err)
	}
	return nil
}

// campaign runs one campaign the way users call it. Timed campaigns
// charge the timed phase, its allocation and its injections; the
// store-backed ones must record exactly one golden-run hit and no
// fallback.
func (b *bench) campaign(a *campaignApp, workload string, st *store.Store, seed int64, n int, timed bool) (*faultinject.CampaignResult, error) {
	c := b.newCampaign(a, workload, st, seed, n)
	var hits, fallbacks int64
	if st != nil {
		hits, fallbacks = st.Counter(store.CounterGoldenHits), st.Counter(store.CounterFallback)
	}
	var res *faultinject.CampaignResult
	var err error
	if timed {
		b.alloc.begin()
	}
	t0 := time.Now()
	switch {
	case workload == wlSharded:
		res, err = shard.RunCampaign(c, shard.BuildSpec{Workload: a.name, Params: defaultParams, OptLevel: 0})
	case b.layers != nil && timed:
		res, err = b.layers.decomposedCampaign(c)
	default:
		res, err = c.Run()
	}
	wall := time.Since(t0)
	if timed {
		b.alloc.end()
		b.timed += wall
		b.injections += n
	}
	if workload == wlSharded {
		ws, werr := collectWorkerStats(filepath.Join(b.tmp, "workers"))
		if werr != nil {
			return nil, werr
		}
		if timed {
			b.noteWorkers(ws, wall, n)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s campaign (seed %d): %w", a.name, seed, err)
	}
	if st != nil {
		dh := st.Counter(store.CounterGoldenHits) - hits
		df := st.Counter(store.CounterFallback) - fallbacks
		if dh != 1 || df != 0 {
			return nil, fmt.Errorf("%s campaign (seed %d): %d store golden hits and %d fallbacks, want 1 and 0", a.name, seed, dh, df)
		}
	}
	if timed && b.layers != nil && workload == wlSharded {
		// The faultinject rows split the same campaign into its calls,
		// run locally.
		c := b.newCampaign(a, wlWarm, st, seed, n)
		if _, err := b.layers.decomposedCampaign(c); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// noteWorkers charges one sharded campaign's worker accounting.
func (b *bench) noteWorkers(ws []workerStats, wall time.Duration, n int) {
	var peak uint64
	for _, w := range ws {
		b.alloc.add(w.AllocBytes)
		peak += w.PeakRSSKB
	}
	if peak > b.workerPeakKB {
		b.workerPeakKB = peak
	}
	b.layers.shardCampaign(ws, wall, n)
}

// recoverChain runs recover-chain: set-up, references, one warm-up
// round, then timed rounds of one coverage experiment per protected
// build; after each experiment every recovered injection is replayed
// with the Safeguard handler timed.
func (b *bench) recoverChain() (*recoverySamples, error) {
	var targets []protectedTarget
	for b.moreSetup() {
		targets = targets[:0]
		t0 := time.Now()
		for _, rt := range recoverTargets {
			tb := time.Now()
			bin, err := experiments.BuildWorkload(rt.name, defaultParams, rt.opt, careDefense)
			if err != nil {
				return nil, err
			}
			b.layers.build(time.Since(tb))
			targets = append(targets, protectedTarget{bin: bin, trials: rt.trials})
		}
		b.setup = append(b.setup, time.Since(t0))
	}
	for i := range targets {
		ref, err := b.refs.reference(recoverTargets[i].name, targets[i].bin)
		if err != nil {
			return nil, err
		}
		targets[i].ref = ref
	}
	// Warm-up: a small experiment per build, its recoveries replayed.
	warm := newRecoverySamples()
	for _, t := range targets {
		t.trials = 2
		seed, err := t.seed(roundSeed(b.opts.seed, -1))
		if err != nil {
			return nil, err
		}
		res, err := coverage(t, seed).Run()
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		for _, ri := range res.RecoveredInjections {
			if err := replayRecovered(t, ri, warm); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	rec := newRecoverySamples()
	budget := time.Duration(b.opts.seconds) * time.Second
	// Whole rounds until the timed phase reaches --seconds and, unless an
	// operation failed, the p90 has its minimum sample count.
	for r := 0; r == 0 || b.timed < budget || (len(rec.handlerUS) < minTailSamples && b.failed == 0); r++ {
		base := roundSeed(b.opts.seed, r)
		for _, t := range targets {
			seed, err := t.seed(base)
			if err != nil {
				return nil, err
			}
			e := coverage(t, seed)
			b.alloc.begin()
			t0 := time.Now()
			var res *faultinject.CoverageResult
			if b.layers != nil {
				res, err = b.layers.decomposedCoverage(e)
			} else {
				res, err = e.Run()
			}
			b.timed += time.Since(t0)
			b.alloc.end()
			if res == nil {
				// The attempts are unknown; charge the attempt budget.
				b.injections += e.AttemptBudget()
				b.fail(e.AttemptBudget(), fmt.Errorf("%s O%d coverage (seed %d): %w", t.bin.Name, t.bin.Prog.OptLevel, seed, err))
				continue
			}
			b.injections += res.Attempts
			if err == nil {
				err = checkCoverage(t, res)
			}
			if err == nil {
				for _, ri := range res.RecoveredInjections {
					if err = replayRecovered(t, ri, rec); err != nil {
						break
					}
				}
			}
			if err != nil {
				b.fail(res.Attempts, fmt.Errorf("seed %d: %w", seed, err))
			}
		}
	}
	if b.layers != nil {
		if err := b.layers.recoverLayers(b, targets); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// decomposedCoverage is CoverageExperiment.Run split into its public
// calls (Prepare, RunAttemptRange waves, MergeAttempt), each timed. The
// waves and the early stop mirror Run's, so the result is the same.
func (l *layerTrace) decomposedCoverage(e *faultinject.CoverageExperiment) (*faultinject.CoverageResult, error) {
	t0 := time.Now()
	prof, err := e.Prepare()
	l.prepareMS = append(l.prepareMS, millis(time.Since(t0)))
	if err != nil {
		return nil, err
	}
	budget := e.AttemptBudget()
	res := e.NewResult()
	chunk := 4 * parallel.Workers(e.Workers, budget)
	var trials, merge time.Duration
	for base := 0; base < budget && res.SigsegvTrials < e.Trials; base += chunk {
		hi := base + chunk
		if hi > budget {
			hi = budget
		}
		t1 := time.Now()
		atts, err := e.RunAttemptRange(prof, base, hi)
		trials += time.Since(t1)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		for i := range atts {
			if res.SigsegvTrials >= e.Trials {
				break
			}
			res.MergeAttempt(&atts[i], e.RecordInjections)
		}
		merge += time.Since(t2)
	}
	l.trialsMS = append(l.trialsMS, millis(trials))
	l.mergeMS = append(l.mergeMS, millis(merge))
	if res.SigsegvTrials < e.Trials {
		return res, fmt.Errorf("only %d/%d SIGSEGV trials after %d attempts", res.SigsegvTrials, e.Trials, res.Attempts)
	}
	return res, nil
}

// decomposedCampaign is Campaign.Run split into Prepare, RunTrialRange
// and MergeResults, each timed.
func (l *layerTrace) decomposedCampaign(c *faultinject.Campaign) (*faultinject.CampaignResult, error) {
	t0 := time.Now()
	prof, err := c.Prepare()
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	trials, err := c.RunTrialRange(prof, 0, c.N)
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	res, err := c.MergeResults(prof, trials)
	t3 := time.Now()
	l.prepareMS = append(l.prepareMS, millis(t1.Sub(t0)))
	l.trialsMS = append(l.trialsMS, millis(t2.Sub(t1)))
	l.mergeMS = append(l.mergeMS, millis(t3.Sub(t2)))
	return res, err
}
