package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"care/internal/checkpoint"
	"care/internal/core"
	"care/internal/experiments"
	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/profiler"
	"care/internal/rtable"
	"care/internal/safeguard"
	"care/internal/shard"
	"care/internal/store"
)

// Per-layer figures of a traced run. Every figure is taken from the
// benchmark's own code around a call into a layer's public functions;
// the spans and counts stay in memory and are reduced to metrics when
// the run ends. A layer the workload's timed phase does not enter is
// measured by a probe over the workload's own apps (see README.md).

// machineTrialSample is how many trials per campaign app the machine
// rows replay one at a time.
const machineTrialSample = 8

// layerTrace collects a traced run's per-layer samples.
type layerTrace struct {
	buildMS []float64

	// faultinject: one sample per campaign or coverage call.
	prepareMS, trialsMS, mergeMS []float64

	// machine: one sample per replayed trial.
	machine []machineSample

	// shard: accounting of the sharded campaigns.
	wireBytes   int64
	workerAlloc uint64
	shardInj    int
	serveMS     []float64
	coordMS     []float64

	m map[string]metric
}

// machineSample splits one replayed trial: process creation, execution
// up to the moment the armed fault fires, and execution after it.
type machineSample struct {
	process, pre, post time.Duration
	preDyn, postDyn    uint64
	skipped            uint64
	alloc              uint64
}

func newLayerTrace() *layerTrace { return &layerTrace{m: map[string]metric{}} }

func (l *layerTrace) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// build records one binary build (no-op in untraced runs).
func (l *layerTrace) build(d time.Duration) {
	if l != nil {
		l.buildMS = append(l.buildMS, millis(d))
	}
}

// shardCampaign records one sharded campaign's worker accounting.
func (l *layerTrace) shardCampaign(ws []workerStats, wall time.Duration, n int) {
	if l == nil {
		return
	}
	var longest float64
	for _, w := range ws {
		l.wireBytes += w.ReadBytes + w.WrittenBytes
		l.workerAlloc += w.AllocBytes
		l.serveMS = append(l.serveMS, w.ServeMS)
		if w.ServeMS > longest {
			longest = w.ServeMS
		}
	}
	l.shardInj += n
	l.coordMS = append(l.coordMS, millis(wall)-longest)
}

// campaignLayers measures the layers of a campaign workload after its
// timed phase.
func (l *layerTrace) campaignLayers(b *bench, apps []*campaignApp, st *store.Store, workload string) error {
	bins := make([]*core.Binary, len(apps))
	refs := make([]*reference, len(apps))
	for i, a := range apps {
		bins[i], refs[i] = a.bin, a.ref
	}
	// Armor and rtable: the CARE builds of the same apps.
	var care []*core.Binary
	for _, name := range campaignApps {
		bin, err := experiments.BuildWorkload(name, defaultParams, 0, careDefense)
		if err != nil {
			return err
		}
		care = append(care, bin)
	}
	if err := l.armorLayer(care); err != nil {
		return err
	}
	profs, err := l.profilerLayer(bins)
	if err != nil {
		return err
	}
	if err := l.checkpointLayer(bins, refs); err != nil {
		return err
	}
	keys := make([]store.Key, len(apps))
	for i, a := range apps {
		keys[i] = a.key
	}
	if err := l.storeLayer(filepath.Join(b.tmp, "store-probe"), bins, keys, profs); err != nil {
		return err
	}
	if workload != wlSharded {
		if err := l.shardProbe(b, apps[0]); err != nil {
			return err
		}
	}
	// Machine: a seeded sample of round 0's trials, one at a time, on
	// the workload's own start path.
	base := roundSeed(b.opts.seed, 0)
	rng := rand.New(rand.NewSource(base ^ 0x5eed))
	for _, a := range apps {
		seed, err := a.seed(base, trialsPerCampaign)
		if err != nil {
			return err
		}
		var prof *profiler.Profile
		if st != nil {
			p, err := st.GetProfile(a.key)
			if err != nil || p == nil {
				return fmt.Errorf("%s: store profile for machine replays: %v", a.name, err)
			}
			prof = p
		}
		for _, i := range sampleTrials(rng, trialsPerCampaign, machineTrialSample) {
			s, err := timeCampaignTrial(a, prof, seed, i)
			if err != nil {
				return err
			}
			l.machine = append(l.machine, s)
		}
	}
	return nil
}

// recoverLayers measures the layers of recover-chain after its timed
// phase; its machine rows come from the recovery replays.
func (l *layerTrace) recoverLayers(b *bench, targets []protectedTarget) error {
	bins := make([]*core.Binary, len(targets))
	refs := make([]*reference, len(targets))
	keys := make([]store.Key, len(targets))
	for i, t := range targets {
		bins[i], refs[i] = t.bin, t.ref
		rt := recoverTargets[i]
		keys[i] = experiments.CampaignKey("coverage", rt.name, defaultParams, rt.opt, careDefense, b.opts.seed, experiments.StudyOptions{WarmStart: true})
	}
	if err := l.armorLayer(bins); err != nil {
		return err
	}
	profs, err := l.profilerLayer(bins)
	if err != nil {
		return err
	}
	if err := l.checkpointLayer(bins, refs); err != nil {
		return err
	}
	if err := l.storeLayer(filepath.Join(b.tmp, "store-probe"), bins, keys, profs); err != nil {
		return err
	}
	bin, err := experiments.BuildWorkload(campaignApps[0], defaultParams, 0, nil)
	if err != nil {
		return err
	}
	ref, err := b.refs.reference(campaignApps[0], bin)
	if err != nil {
		return err
	}
	a := &campaignApp{name: campaignApps[0], bin: bin, ref: ref,
		key: experiments.CampaignKey("campaign", campaignApps[0], defaultParams, 0, nil, b.opts.seed, experiments.StudyOptions{WarmStart: true})}
	return l.shardProbe(b, a)
}

// armorLayer records the recovery artifact sizes of protected builds
// and the time rtable.Decode takes on each table.
func (l *layerTrace) armorLayer(bins []*core.Binary) error {
	var tableBytes, libBytes int
	var decodeUS []float64
	for _, bin := range bins {
		tableBytes += len(bin.RecoveryTable)
		libBytes += len(bin.RecoveryLib)
		for k := 0; k < 10; k++ {
			t0 := time.Now()
			if _, err := rtable.Decode(bin.RecoveryTable); err != nil {
				return fmt.Errorf("%s: decode recovery table: %w", bin.Name, err)
			}
			decodeUS = append(decodeUS, micros(time.Since(t0)))
		}
	}
	n := float64(len(bins))
	l.set("armor.rtable_bytes", float64(tableBytes)/n, "bytes")
	l.set("armor.rlib_bytes", float64(libBytes)/n, "bytes")
	l.set("rtable.decode_us", medianOrZero(decodeUS), "us")
	return nil
}

// profilerLayer times the golden run and the snapshot pass (at the
// campaigns' default cadence) of each binary and returns the snapshot
// profiles.
func (l *layerTrace) profilerLayer(bins []*core.Binary) ([]*profiler.Profile, error) {
	var golden, snap time.Duration
	var dyn uint64
	var snaps, snapBytes int
	profs := make([]*profiler.Profile, len(bins))
	for i, bin := range bins {
		t0 := time.Now()
		prof, err := profiler.Run(bin, nil, 0)
		golden += time.Since(t0)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		sprof, err := profiler.RunWithSnapshots(bin, nil, 0, prof.TotalDyn/64+1)
		snap += time.Since(t1)
		if err != nil {
			return nil, err
		}
		dyn += prof.TotalDyn
		snaps += len(sprof.Snaps)
		for _, s := range sprof.Snaps {
			snapBytes += s.State.Bytes()
		}
		profs[i] = sprof
	}
	n := float64(len(bins))
	l.set("profiler.golden_ms", millis(golden)/n, "ms")
	l.set("profiler.golden_minstr_per_s", float64(dyn)/golden.Seconds()/1e6, "Minstr/s")
	l.set("profiler.snapshot_ms", millis(snap)/n, "ms")
	l.set("profiler.snapshot_minstr_per_s", float64(dyn)/snap.Seconds()/1e6, "Minstr/s")
	l.set("profiler.snapshots", float64(snaps)/n, "count")
	l.set("checkpoint.snapshot_kb", float64(snapBytes)/1024/n, "kB")
	return profs, nil
}

// checkpointLayer times checkpoint.Store.Save and Restore on a mid-run
// state of each binary.
func (l *layerTrace) checkpointLayer(bins []*core.Binary, refs []*reference) error {
	var saveUS, restoreUS []float64
	for i, bin := range bins {
		p, err := core.NewProcess(core.ProcessConfig{App: bin, Protected: bin.Protected()})
		if err != nil {
			return err
		}
		if st := p.Run(refs[i].TotalDyn / 2); st != machine.StatusLimit {
			return fmt.Errorf("%s: mid-run stop ended %v", bin.Name, st)
		}
		cs := checkpoint.NewStore(checkpoint.DefaultCostModel())
		for k := 0; k < 8; k++ {
			t0 := time.Now()
			snap := cs.Save(p.CPU, k)
			saveUS = append(saveUS, micros(time.Since(t0)))
			t1 := time.Now()
			if _, err := cs.Restore(p.CPU, snap); err != nil {
				return err
			}
			restoreUS = append(restoreUS, micros(time.Since(t1)))
		}
	}
	l.set("checkpoint.save_us", medianOrZero(saveUS), "us")
	l.set("checkpoint.restore_us", medianOrZero(restoreUS), "us")
	return nil
}

// storeLayer times PutProfile and a verified GetProfile hit of each
// binary's snapshot profile in a fresh store, and reads the store's own
// byte counters.
func (l *layerTrace) storeLayer(dir string, bins []*core.Binary, keys []store.Key, profs []*profiler.Profile) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var put, get time.Duration
	for i, bin := range bins {
		text := []store.TextImage{{Name: bin.Prog.Name, Data: bin.Prog.CodeImage()}}
		t0 := time.Now()
		if err := st.PutProfile(keys[i], profs[i], text); err != nil {
			return err
		}
		put += time.Since(t0)
	}
	written := st.Counter(store.CounterBytesWritten)
	deduped := st.Counter(store.CounterBytesDeduped)
	for i := range bins {
		t0 := time.Now()
		prof, err := st.GetProfile(keys[i])
		get += time.Since(t0)
		if err != nil || prof == nil {
			return fmt.Errorf("store probe: %s not a hit: %v", bins[i].Name, err)
		}
	}
	n := float64(len(bins))
	l.set("store.put_ms", millis(put)/n, "ms")
	l.set("store.get_ms", millis(get)/n, "ms")
	l.set("store.written_kb", float64(written)/1024/n, "kB")
	l.set("store.deduped_kb", float64(deduped)/1024/n, "kB")
	l.set("store.read_kb", float64(st.Counter(store.CounterBytesRead))/1024/n, "kB")
	return nil
}

// shardProbe runs one campaign-sharded campaign of a on a fresh store,
// for workloads whose timed phase crosses no shard wire.
func (l *layerTrace) shardProbe(b *bench, a *campaignApp) error {
	dir := filepath.Join(b.tmp, "shard-probe")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	seed, err := a.seed(roundSeed(b.opts.seed, 0), trialsPerCampaign)
	if err != nil {
		return err
	}
	if _, err := b.newCampaign(a, wlSharded, st, seed, trialsPerCampaign).Prepare(); err != nil {
		return err
	}
	c := b.newCampaign(a, wlSharded, st, seed, trialsPerCampaign)
	t0 := time.Now()
	res, err := shard.RunCampaign(c, shard.BuildSpec{Workload: a.name, Params: defaultParams, OptLevel: 0})
	wall := time.Since(t0)
	ws, werr := collectWorkerStats(filepath.Join(b.tmp, "workers"))
	if err != nil {
		return fmt.Errorf("shard probe: %w", err)
	}
	if werr != nil {
		return werr
	}
	l.shardCampaign(ws, wall, trialsPerCampaign)
	return checkCampaign(a.bin, a.ref, seed, res, sampleTrials(rand.New(rand.NewSource(seed)), trialsPerCampaign, checkSample))
}

// timeCampaignTrial replays trial i of a campaign with the given seed
// on the campaign's own start path — warm from the nearest snapshot of
// prof when prof is non-nil, cold otherwise — splitting its time at the
// moment the armed fault fires.
func timeCampaignTrial(a *campaignApp, prof *profiler.Profile, seed int64, i int) (machineSample, error) {
	target, bit := trialInjection(seed, i, a.ref.TotalDyn)
	var s machineSample
	a0 := totalAlloc()
	t0 := time.Now()
	cfg := core.ProcessConfig{App: a.bin}
	limit := hangFactor * a.ref.TotalDyn
	var p *core.Process
	var err error
	if snap := nearestSnap(prof, target); snap != nil {
		p, err = core.NewProcessFromSnapshot(cfg, snap.State)
		s.skipped = snap.Dyn
		limit -= snap.Dyn
	} else {
		p, err = core.NewProcess(cfg)
	}
	if err != nil {
		return s, err
	}
	s.process = time.Since(t0)
	armed := faultinject.Arm(p.CPU, faultinject.Trigger{AtDyn: target}, []int{bit})
	startDyn := p.CPU.Dyn
	start := time.Now()
	armed.OnFire = func(c *machine.CPU, _ *machine.MInstr) {
		s.pre = time.Since(start)
		s.preDyn = c.Dyn - startDyn
	}
	p.Run(limit)
	total := time.Since(start)
	if !armed.Fired {
		s.pre, s.preDyn = total, p.CPU.Dyn-startDyn
	}
	s.post = total - s.pre
	s.postDyn = p.CPU.Dyn - startDyn - s.preDyn
	s.alloc = totalAlloc() - a0
	return s, nil
}

func nearestSnap(prof *profiler.Profile, dyn uint64) *profiler.SnapPoint {
	if prof == nil {
		return nil
	}
	return prof.NearestSnap(dyn)
}

// metrics reduces the collected samples to the per-layer metrics;
// rec holds the workload's recovery replays.
func (l *layerTrace) metrics(rec *recoverySamples) map[string]metric {
	l.set("core.build_ms", medianOrZero(l.buildMS), "ms")
	l.set("faultinject.prepare_ms", medianOrZero(l.prepareMS), "ms")
	l.set("faultinject.trials_ms", medianOrZero(l.trialsMS), "ms")
	l.set("faultinject.merge_ms", medianOrZero(l.mergeMS), "ms")

	ms := l.machine
	if len(ms) == 0 {
		ms = rec.machine
	}
	var process, pre, post []float64
	var preT, postT time.Duration
	var preDyn, postDyn, skipped, alloc uint64
	for _, s := range ms {
		process = append(process, micros(s.process))
		pre = append(pre, micros(s.pre))
		post = append(post, micros(s.post))
		preT += s.pre
		postT += s.post
		preDyn += s.preDyn
		postDyn += s.postDyn
		skipped += s.skipped
		alloc += s.alloc
	}
	n := float64(len(ms))
	l.set("machine.process_us", medianOrZero(process), "us")
	l.set("machine.prefault_us", medianOrZero(pre), "us")
	l.set("machine.postfault_us", medianOrZero(post), "us")
	l.set("machine.prefault_minstr_per_s", rate(preDyn, preT), "Minstr/s")
	l.set("machine.postfault_minstr_per_s", rate(postDyn, postT), "Minstr/s")
	l.set("machine.prefault_dyn", float64(preDyn)/n, "count")
	l.set("machine.skipped_dyn", float64(skipped)/n, "count")
	l.set("machine.alloc_kb_per_trial", float64(alloc)/1024/n, "kB")

	r := float64(rec.replays)
	l.set("checkpoint.saves_per_trial", float64(rec.saves)/r, "count")
	l.set("checkpoint.restores_per_trial", float64(rec.restores)/r, "count")
	l.set("safeguard.activations_per_recovery", float64(len(rec.handlerUS))/r, "count")
	l.set("safeguard.repair_us_p50", medianOrZero(rec.byClass[actRepair]), "us")
	l.set("safeguard.rewind_us_p50", medianOrZero(rec.byClass[actRewind]), "us")
	l.set("safeguard.rollback_us_p50", medianOrZero(rec.byClass[actRollback]), "us")
	phase := func(name string, f func(safeguard.Event) time.Duration) {
		var v []float64
		for _, ev := range rec.events {
			if d := f(ev); d > 0 {
				v = append(v, micros(d))
			}
		}
		l.set(name, medianOrZero(v), "us")
	}
	phase("safeguard.diagnose_us", func(e safeguard.Event) time.Duration { return e.Diagnose })
	phase("safeguard.load_us", func(e safeguard.Event) time.Duration { return e.Load })
	phase("safeguard.fetch_us", func(e safeguard.Event) time.Duration { return e.Fetch })
	phase("safeguard.kernel_us", func(e safeguard.Event) time.Duration { return e.Kernel })
	phase("safeguard.patch_us", func(e safeguard.Event) time.Duration { return e.Patch })

	inj := float64(l.shardInj)
	l.set("shard.wire_kb_per_injection", float64(l.wireBytes)/1024/inj, "kB")
	l.set("shard.worker_alloc_kb_per_injection", float64(l.workerAlloc)/1024/inj, "kB")
	l.set("shard.serve_ms", medianOrZero(l.serveMS), "ms")
	l.set("shard.coordinator_ms", medianOrZero(l.coordMS), "ms")
	return l.m
}

// rate is dyn instructions over d in millions per second.
func rate(dyn uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(dyn) / d.Seconds() / 1e6
}
