package shard

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"care/internal/checkpoint"
	"care/internal/core"
	"care/internal/faultinject"
	"care/internal/fbits"
	"care/internal/machine"
	"care/internal/profiler"
	"care/internal/safeguard"
	"care/internal/store"
	"care/internal/trace"
	"care/internal/workloads"
)

// The wire layer round-trips every value a worker needs through JSON
// without losing a bit. Two kinds of fields need care:
//
//   - float64 streams (golden results, FPU registers) are shipped as
//     raw IEEE-754 bit patterns, because encoding/json rejects NaN/Inf
//     and a decimal round trip is not guaranteed bit-exact;
//   - trace recorders ship as their JSONL export, whose decoder
//     restores the ID allocator and drop counts, so a shipped recorder
//     merges exactly like the original (the byte-identity contract).

// BuildSpec tells a worker how to rebuild the campaign binary. The
// compiler pipeline is deterministic, so a worker's build is identical
// to the coordinator's — only the spec crosses the process boundary,
// never the binary itself.
type BuildSpec struct {
	// Workload names the registered workload (workloads.Get).
	Workload string
	// Params are the workload's build parameters.
	Params workloads.Params
	// OptLevel is the compiler optimisation level (0 or 1).
	OptLevel int
	// Defenses names the defense passes, in list order (nil =
	// undefended).
	Defenses []string
}

// Build compiles the spec's binary. Exposed so CLIs can share the
// exact build path the workers use.
func (b BuildSpec) Build() (*core.Binary, error) {
	w, err := workloads.Get(b.Workload)
	if err != nil {
		return nil, err
	}
	return core.Build(w.Module(b.Params), core.BuildOptions{OptLevel: b.OptLevel, Defenses: b.Defenses})
}

// CampaignSpec is the process-portable subset of faultinject.Campaign:
// everything except the binary (rebuilt from BuildSpec), the profile
// (shipped separately), and the coordinator-only knobs (Shards,
// ShardExec, Progress, WarmStart — the worker never re-profiles).
type CampaignSpec struct {
	N                int
	FaultsPerTrial   int
	Model            faultinject.Model
	Seed             int64
	HangFactor       uint64
	TrackPropagation bool
	Workers          int
	Trace            bool
	Tier             machine.InterpTier
	Domains          bool
	Protected        bool
	Safeguard        safeguard.Config
}

// campaignSpecOf extracts the portable subset of c.
func campaignSpecOf(c *faultinject.Campaign) *CampaignSpec {
	return &CampaignSpec{
		N: c.N, FaultsPerTrial: c.FaultsPerTrial, Model: c.Model,
		Seed: c.Seed, HangFactor: c.HangFactor,
		TrackPropagation: c.TrackPropagation, Workers: c.Workers,
		Trace: c.Trace, Tier: c.Tier, Domains: c.Domains,
		Protected: c.Protected, Safeguard: c.Safeguard,
	}
}

// campaign rebuilds a runnable Campaign around a worker-built binary.
func (s *CampaignSpec) campaign(app *core.Binary, libs []*core.Binary) *faultinject.Campaign {
	return &faultinject.Campaign{
		App: app, Libs: libs,
		N: s.N, FaultsPerTrial: s.FaultsPerTrial, Model: s.Model,
		Seed: s.Seed, HangFactor: s.HangFactor,
		TrackPropagation: s.TrackPropagation, Workers: s.Workers,
		Trace: s.Trace, Tier: s.Tier, Domains: s.Domains,
		Protected: s.Protected, Safeguard: s.Safeguard,
	}
}

// CoverageSpec is the process-portable subset of
// faultinject.CoverageExperiment, mirroring CampaignSpec.
type CoverageSpec struct {
	TargetImages           []string
	Trials                 int
	MaxAttempts            int
	FaultsPerTrial         int
	Model                  faultinject.Model
	Seed                   int64
	Safeguard              safeguard.Config
	CheckpointEveryResults int
	CheckpointModel        checkpoint.CostModel
	HangFactor             uint64
	RecordInjections       bool
	Workers                int
	Trace                  bool
	Tier                   machine.InterpTier
}

func coverageSpecOf(e *faultinject.CoverageExperiment) *CoverageSpec {
	return &CoverageSpec{
		TargetImages: e.TargetImages, Trials: e.Trials,
		MaxAttempts: e.MaxAttempts, FaultsPerTrial: e.FaultsPerTrial,
		Model: e.Model, Seed: e.Seed, Safeguard: e.Safeguard,
		CheckpointEveryResults: e.CheckpointEveryResults,
		CheckpointModel:        e.CheckpointModel,
		HangFactor:             e.HangFactor,
		RecordInjections:       e.RecordInjections,
		Workers:                e.Workers, Trace: e.Trace, Tier: e.Tier,
	}
}

func (s *CoverageSpec) experiment(app *core.Binary, libs []*core.Binary) *faultinject.CoverageExperiment {
	return &faultinject.CoverageExperiment{
		App: app, Libs: libs,
		TargetImages: s.TargetImages, Trials: s.Trials,
		MaxAttempts: s.MaxAttempts, FaultsPerTrial: s.FaultsPerTrial,
		Model: s.Model, Seed: s.Seed, Safeguard: s.Safeguard,
		CheckpointEveryResults: s.CheckpointEveryResults,
		CheckpointModel:        s.CheckpointModel,
		HangFactor:             s.HangFactor,
		RecordInjections:       s.RecordInjections,
		Workers:                s.Workers, Trace: s.Trace, Tier: s.Tier,
	}
}

// WorkerSpec is the one-time configuration frame a worker receives
// before any run frames. Exactly one of Campaign/Coverage is set.
// When StoreDir is set, the profile's snapshot memory ships as segment
// hash references and the worker fetches the bytes from the shared
// content-addressed store instead of the spec frame — deduping the
// wire the same way the store dedups the disk.
type WorkerSpec struct {
	Build    BuildSpec     `json:"build"`
	Campaign *CampaignSpec `json:"campaign,omitempty"`
	Coverage *CoverageSpec `json:"coverage,omitempty"`
	Profile  wireProfile   `json:"profile"`
	StoreDir string        `json:"store_dir,omitempty"`
}

// wireProfile ships a profiler.Profile, snapshots included, so workers
// skip the golden-run replay entirely (and warm-started shards clone
// the coordinator's snapshots through the frozen-COW restore path).
type wireProfile struct {
	TotalDyn   uint64              `json:"total_dyn"`
	Counts     map[string][]uint64 `json:"counts,omitempty"`
	GoldenBits []uint64            `json:"golden_bits"`
	ExitCode   uint64              `json:"exit_code"`
	Snaps      []wireSnap          `json:"snaps,omitempty"`
}

type wireSnap struct {
	Dyn    uint64              `json:"dyn"`
	State  wireSnapshot        `json:"state"`
	Counts map[string][]uint64 `json:"counts,omitempty"`
}

// wireSnapshot ships a checkpoint.Snapshot. Memory segments are
// JSON-native ([]byte images encode as base64) when shipped inline, or
// collapse to content-address references (SegRefs + HeapNext, Mem nil)
// when both ends share a store; the FPU register file and the result
// stream go as bit patterns.
type wireSnapshot struct {
	Mem        *machine.Snapshot `json:"mem,omitempty"`
	SegRefs    []wireSegRef      `json:"seg_refs,omitempty"`
	HeapNext   uint64            `json:"heap_next,omitempty"`
	R          []uint64          `json:"r"`
	FBits      []uint64          `json:"f_bits"`
	PC         uint64            `json:"pc"`
	Dyn        uint64            `json:"dyn"`
	Step       int               `json:"step"`
	ResultBits []uint64          `json:"result_bits,omitempty"`
	Printed    []string          `json:"printed,omitempty"`
}

// wireSegRef points at one segment's bytes in the shared store, as an
// ordered list of ChunkSize page hashes (the store's dedup granularity).
type wireSegRef struct {
	Base   uint64   `json:"base"`
	Name   string   `json:"name"`
	Pages  []string `json:"pages,omitempty"`
	Len    int      `json:"len"`
	Domain uint8    `json:"domain,omitempty"`
}

// encodeSnapHeader fills the snapshot fields every transport shares
// (registers, env streams); the memory image is the caller's choice of
// inline bytes or store references.
func encodeSnapHeader(st *checkpoint.Snapshot) wireSnapshot {
	ws := wireSnapshot{
		R:          make([]uint64, len(st.CPU.R)),
		FBits:      fbits.Of(st.CPU.F[:]),
		PC:         uint64(st.CPU.PC),
		Dyn:        st.CPU.Dyn,
		Step:       st.Step,
		ResultBits: fbits.Of(st.EnvResults),
		Printed:    st.EnvPrinted,
	}
	for j, r := range st.CPU.R {
		ws.R[j] = uint64(r)
	}
	return ws
}

func encodeProfile(p *profiler.Profile) wireProfile {
	wp := wireProfile{
		TotalDyn:   p.TotalDyn,
		Counts:     p.Counts,
		GoldenBits: fbits.Of(p.Golden),
		ExitCode:   p.ExitCode,
	}
	for i := range p.Snaps {
		sp := &p.Snaps[i]
		ws := encodeSnapHeader(sp.State)
		ws.Mem = sp.State.Mem
		wp.Snaps = append(wp.Snaps, wireSnap{Dyn: sp.Dyn, State: ws, Counts: sp.Counts})
	}
	return wp
}

// encodeProfileDedup encodes a profile with snapshot memory hoisted
// into the store as content-addressed blobs: the spec frame carries
// hashes, the worker fetches bytes. Segments shared across snapshots
// (frozen COW aliases) are recognised by backing-array identity and
// stored once. Returns ok=false — with the full inline encoding — when
// there is no store or a blob write failed (the store charges
// store.fallback); the coordinator then ships payloads as before, so a
// broken store can never lose a campaign.
func encodeProfileDedup(p *profiler.Profile, st *store.Store) (wireProfile, bool) {
	if st == nil {
		return encodeProfile(p), false
	}
	wp := wireProfile{
		TotalDyn:   p.TotalDyn,
		Counts:     p.Counts,
		GoldenBits: fbits.Of(p.Golden),
		ExitCode:   p.ExitCode,
	}
	type ref struct {
		pages []string
		n     int
	}
	seen := map[*byte]ref{}
	for i := range p.Snaps {
		sp := &p.Snaps[i]
		ws := encodeSnapHeader(sp.State)
		ws.HeapNext = uint64(sp.State.Mem.HeapNext)
		for _, seg := range sp.State.Mem.Segs {
			var r ref
			if data := seg.Image(); len(data) > 0 {
				if c, ok := seen[&data[0]]; ok && c.n == len(data) {
					r = c
				} else {
					pages, err := st.PutChunked(data)
					if err != nil {
						st.AddFallback()
						return encodeProfile(p), false
					}
					r = ref{pages: pages, n: len(data)}
					seen[&data[0]] = r
				}
			}
			ws.SegRefs = append(ws.SegRefs, wireSegRef{
				Base: uint64(seg.Base), Name: seg.Name,
				Pages: r.pages, Len: r.n, Domain: uint8(seg.Domain),
			})
		}
		wp.Snaps = append(wp.Snaps, wireSnap{Dyn: sp.Dyn, State: ws, Counts: sp.Counts})
	}
	return wp, true
}

// decodeProfile reconstructs a profile on the worker side. st is the
// shared store opened from the spec's StoreDir (nil when snapshots
// shipped inline); fetched blobs are verified against their hash and
// cached per call, so segments shared across snapshots alias one byte
// slice exactly as they did in the coordinator. A reference the store
// cannot verify is an error — the worker reports it and the shard
// fails loudly rather than running on unverified memory.
func decodeProfile(wp *wireProfile, st *store.Store) (*profiler.Profile, error) {
	p := &profiler.Profile{
		TotalDyn: wp.TotalDyn,
		Counts:   wp.Counts,
		Golden:   fbits.Floats(wp.GoldenBits),
		ExitCode: wp.ExitCode,
	}
	pageCache := map[string][]byte{}
	segCache := map[string][]byte{}
	for i := range wp.Snaps {
		ws := &wp.Snaps[i]
		mem := ws.State.Mem
		if mem == nil && len(ws.State.SegRefs) > 0 {
			if st == nil {
				return nil, fmt.Errorf("shard: snapshot %d ships segment references but no store directory", i)
			}
			mem = &machine.Snapshot{HeapNext: machine.Word(ws.State.HeapNext)}
			for _, r := range ws.State.SegRefs {
				segKey := strings.Join(r.Pages, "")
				data, ok := segCache[segKey]
				if !ok || len(data) != r.Len {
					var err error
					if data, err = st.GetChunked(r.Pages, r.Len, pageCache); err != nil {
						return nil, fmt.Errorf("shard: snapshot %d: %w", i, err)
					}
					segCache[segKey] = data
				}
				mem.Segs = append(mem.Segs, machine.SegSnapshot{
					Base: machine.Word(r.Base), Name: r.Name,
					Data: data, Domain: machine.DomainID(r.Domain),
				})
			}
		}
		if mem == nil {
			return nil, fmt.Errorf("shard: snapshot %d shipped without a memory image", i)
		}
		snap := &checkpoint.Snapshot{
			Mem:        mem,
			Step:       ws.State.Step,
			EnvResults: fbits.Floats(ws.State.ResultBits),
			EnvPrinted: ws.State.Printed,
		}
		if len(ws.State.R) != len(snap.CPU.R) || len(ws.State.FBits) != len(snap.CPU.F) {
			return nil, fmt.Errorf("shard: snapshot %d register file has %d/%d slots, machine has %d/%d",
				i, len(ws.State.R), len(ws.State.FBits), len(snap.CPU.R), len(snap.CPU.F))
		}
		for j, r := range ws.State.R {
			snap.CPU.R[j] = machine.Word(r)
		}
		copy(snap.CPU.F[:], fbits.Floats(ws.State.FBits))
		snap.CPU.PC = machine.Word(ws.State.PC)
		snap.CPU.Dyn = ws.State.Dyn
		p.Snaps = append(p.Snaps, profiler.SnapPoint{Dyn: ws.Dyn, State: snap, Counts: ws.Counts})
	}
	return p, nil
}

// wireTrial ships one faultinject.TrialResult; the recorder goes as
// its JSONL export (base64 inside the JSON frame).
type wireTrial struct {
	Index      int                   `json:"index"`
	Inj        faultinject.Injection `json:"inj"`
	Fired      bool                  `json:"fired,omitempty"`
	SkippedDyn uint64                `json:"skipped_dyn,omitempty"`
	TraceJSONL []byte                `json:"trace_jsonl"`
}

func encodeTrial(t *faultinject.TrialResult) (wireTrial, error) {
	var buf bytes.Buffer
	if err := t.Rec.WriteJSONL(&buf); err != nil {
		return wireTrial{}, err
	}
	return wireTrial{
		Index: t.Index, Inj: t.Inj, Fired: t.Fired,
		SkippedDyn: t.SkippedDyn, TraceJSONL: buf.Bytes(),
	}, nil
}

func decodeTrial(w *wireTrial) (faultinject.TrialResult, error) {
	rec, err := trace.ReadJSONL(bytes.NewReader(w.TraceJSONL))
	if err != nil {
		return faultinject.TrialResult{}, fmt.Errorf("shard: trial %d trace: %w", w.Index, err)
	}
	return faultinject.TrialResult{
		Index: w.Index, Inj: w.Inj, Fired: w.Fired,
		SkippedDyn: w.SkippedDyn, Rec: rec,
	}, nil
}

// wireAttempt ships one faultinject.AttemptResult. Uncounted attempts
// carry no trace (nil recorder on both ends).
type wireAttempt struct {
	Index       int                           `json:"index"`
	Counted     bool                          `json:"counted,omitempty"`
	Events      []safeguard.Event             `json:"events,omitempty"`
	TraceJSONL  []byte                        `json:"trace_jsonl,omitempty"`
	Recovered   bool                          `json:"recovered,omitempty"`
	Clean       bool                          `json:"clean,omitempty"`
	RecTimeNs   int64                         `json:"rec_time_ns,omitempty"`
	Activations int                           `json:"activations,omitempty"`
	Failure     safeguard.Outcome             `json:"failure,omitempty"`
	Rec         faultinject.RecordedInjection `json:"rec,omitempty"`
}

func encodeAttempt(a *faultinject.AttemptResult) (wireAttempt, error) {
	w := wireAttempt{
		Index: a.Index, Counted: a.Counted, Events: a.Events,
		Recovered: a.Recovered, Clean: a.Clean,
		RecTimeNs: a.RecTime.Nanoseconds(), Activations: a.Activations,
		Failure: a.Failure, Rec: a.Rec,
	}
	if a.Trace != nil {
		var buf bytes.Buffer
		if err := a.Trace.WriteJSONL(&buf); err != nil {
			return wireAttempt{}, err
		}
		w.TraceJSONL = buf.Bytes()
	}
	return w, nil
}

func decodeAttempt(w *wireAttempt) (faultinject.AttemptResult, error) {
	a := faultinject.AttemptResult{
		Index: w.Index, Counted: w.Counted, Events: w.Events,
		Recovered: w.Recovered, Clean: w.Clean,
		RecTime: time.Duration(w.RecTimeNs), Activations: w.Activations,
		Failure: w.Failure, Rec: w.Rec,
	}
	if len(w.TraceJSONL) > 0 {
		rec, err := trace.ReadJSONL(bytes.NewReader(w.TraceJSONL))
		if err != nil {
			return faultinject.AttemptResult{}, fmt.Errorf("shard: attempt %d trace: %w", w.Index, err)
		}
		a.Trace = rec
	}
	return a, nil
}
