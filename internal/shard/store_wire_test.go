package shard

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"care/internal/faultinject"
	"care/internal/store"
)

func openStoreT(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestProfileWireDedupRoundTrip: the store-backed encoding must decode
// to the same profile the inline encoding does, bit for bit.
func TestProfileWireDedupRoundTrip(t *testing.T) {
	build := BuildSpec{Workload: "HPCCG"}
	bin := buildSpecOrDie(t, build)
	c := &faultinject.Campaign{App: bin, N: 4, Seed: 3, WarmStart: true}
	prof, err := c.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Snaps) == 0 {
		t.Fatal("warm-start profile has no snapshots")
	}
	st := openStoreT(t)
	wp, ok := encodeProfileDedup(prof, st)
	if !ok {
		t.Fatal("encodeProfileDedup fell back with a healthy store")
	}
	for i := range wp.Snaps {
		if wp.Snaps[i].State.Mem != nil {
			t.Fatalf("snap %d still ships inline memory", i)
		}
		if len(wp.Snaps[i].State.SegRefs) == 0 {
			t.Fatalf("snap %d ships no segment refs", i)
		}
	}
	got, err := decodeProfile(&wp, st)
	if err != nil {
		t.Fatal(err)
	}
	inline := encodeProfile(prof)
	want, err := decodeProfile(&inline, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalDyn != want.TotalDyn || len(got.Snaps) != len(want.Snaps) {
		t.Fatalf("deduped profile shape differs: %d/%d snaps", len(got.Snaps), len(want.Snaps))
	}
	for i := range got.Snaps {
		g, w := got.Snaps[i].State, want.Snaps[i].State
		if g.CPU != w.CPU || g.Mem.HeapNext != w.Mem.HeapNext {
			t.Fatalf("snap %d header differs", i)
		}
		// The inline encoding ships compacted stack images as they were
		// captured, the store pages whole ones: compare the images.
		if len(g.Mem.Segs) != len(w.Mem.Segs) {
			t.Fatalf("snap %d: %d segments, inline %d", i, len(g.Mem.Segs), len(w.Mem.Segs))
		}
		for j := range g.Mem.Segs {
			gs, ws := &g.Mem.Segs[j], &w.Mem.Segs[j]
			if gs.Base != ws.Base || gs.Name != ws.Name || gs.Domain != ws.Domain ||
				gs.Len() != ws.Len() || !bytes.Equal(gs.Image(), ws.Image()) {
				t.Fatalf("snap %d segment %d memory differs", i, j)
			}
		}
	}
	for i := range got.Golden {
		if math.Float64bits(got.Golden[i]) != math.Float64bits(want.Golden[i]) {
			t.Fatalf("golden[%d] bits differ", i)
		}
	}
	if st.Counter(store.CounterBlobPuts) == 0 {
		t.Fatal("no blobs written")
	}
}

// TestProfileWireDedupSharesBlobs: a second coordinator encoding into
// the same store (shards 1 then shards 4 of the same campaign) must
// dedup every segment blob.
func TestProfileWireDedupSharesBlobs(t *testing.T) {
	build := BuildSpec{Workload: "HPCCG"}
	bin := buildSpecOrDie(t, build)
	c := &faultinject.Campaign{App: bin, N: 4, Seed: 3, WarmStart: true}
	prof, err := c.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := encodeProfileDedup(prof, s1); !ok {
		t.Fatal("first encode fell back")
	}
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := encodeProfileDedup(prof, s2); !ok {
		t.Fatal("second encode fell back")
	}
	if n := s2.Counter(store.CounterBlobPuts); n != 0 {
		t.Fatalf("second encode wrote %d fresh blobs, want 0", n)
	}
	if n := s2.Counter(store.CounterBlobDedup); n == 0 {
		t.Fatal("second encode recorded no dedup hits")
	}
}

// TestDecodeProfileRefsWithoutStore: segment references without a
// store are a loud error, not a silent empty profile.
func TestDecodeProfileRefsWithoutStore(t *testing.T) {
	build := BuildSpec{Workload: "HPCCG"}
	bin := buildSpecOrDie(t, build)
	c := &faultinject.Campaign{App: bin, N: 4, Seed: 3, WarmStart: true}
	prof, err := c.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreT(t)
	wp, ok := encodeProfileDedup(prof, st)
	if !ok {
		t.Fatal("encode fell back")
	}
	if _, err := decodeProfile(&wp, nil); err == nil {
		t.Fatal("decode without store must error")
	}
}

// TestDecodeProfileCorruptBlobFailsLoudly: a worker that cannot verify
// a fetched segment must error, never run on unverified memory.
func TestDecodeProfileCorruptBlobFailsLoudly(t *testing.T) {
	build := BuildSpec{Workload: "HPCCG"}
	bin := buildSpecOrDie(t, build)
	c := &faultinject.Campaign{App: bin, N: 4, Seed: 3, WarmStart: true}
	prof, err := c.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreT(t)
	wp, ok := encodeProfileDedup(prof, st)
	if !ok {
		t.Fatal("encode fell back")
	}
	// Flip a byte in every blob.
	filepath.Walk(filepath.Join(st.Dir(), "blobs"), func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b[0] ^= 0x01
		return os.WriteFile(path, b, 0o644)
	})
	if _, err := decodeProfile(&wp, st); err == nil {
		t.Fatal("decode of corrupt blobs must error")
	}
}

// TestCampaignShardStoreEquivalence is the wire-dedup contract end to
// end: subprocess workers fetching segments from a shared store produce
// byte-identical results to the single-process cold run.
func TestCampaignShardStoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("CARE_SHARD_SERVE", "1")
	build := BuildSpec{Workload: "HPCCG"}
	bin := buildSpecOrDie(t, build)
	base := func() *faultinject.Campaign {
		return &faultinject.Campaign{
			App: bin, N: 18, Model: faultinject.SingleBit, Seed: 11,
			Workers: 1, Trace: true, WarmStart: true,
		}
	}
	single, err := base().Run()
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreT(t)
	c := base()
	c.Shards = 3
	c.ShardExec = selfExec()
	c.Store = st
	c.StoreKey = store.Key{Kind: "campaign", Workload: "HPCCG", Seed: 11}
	res, err := RunCampaign(c, build)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := scrubCampaign(single), scrubCampaign(res); !reflect.DeepEqual(a, b) {
		t.Fatalf("store-sharded result differs from single-process:\n%+v\nvs\n%+v", b, a)
	}
	if want, got := scrubJSONL(t, single.Trace), scrubJSONL(t, res.Trace); got != want {
		t.Fatalf("store-sharded trace JSONL differs (%d vs %d bytes)", len(got), len(want))
	}
	if st.Counter(store.CounterBlobPuts) == 0 {
		t.Fatal("coordinator shipped no blobs through the store")
	}
	// A second identical sharded campaign into the same store is a
	// golden cache hit AND pure wire dedup.
	c2 := base()
	c2.Shards = 3
	c2.ShardExec = selfExec()
	c2.Store = st
	c2.StoreKey = c.StoreKey
	res2, err := RunCampaign(c2, build)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := scrubJSONL(t, res.Trace), scrubJSONL(t, res2.Trace); got != want {
		t.Fatalf("cache-hit sharded trace differs from first run")
	}
	if st.Counter(store.CounterGoldenHits) == 0 {
		t.Fatal("second campaign did not hit the golden cache")
	}
}
