package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/sim"
)

func testEntry(t *testing.T, arg int) Entry {
	t.Helper()
	c := testCell()
	c.Arg = arg
	return Entry{
		Key: KeyCell(c), Canon: CanonicalCell(c),
		Experiment: c.Experiment, Series: c.Series,
		PS: int64(arg) * 1000, ComputeMS: 1.5,
	}
}

func TestStorePutGetFirstWriteWins(t *testing.T) {
	s := NewStore()
	e := testEntry(t, 1024)
	s.Put(e)
	dup := e
	dup.PS, dup.ComputeMS = e.PS, 99 // same answer, different wall-clock
	s.Put(dup)
	got, ok := s.Get(e.Key)
	if !ok || got.ComputeMS != 1.5 {
		t.Fatalf("Get = %+v, %v; want the first write", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreSaveLoadRoundtrip(t *testing.T) {
	s := NewStore()
	for _, arg := range []int{1, 64 << 10, 2 << 20} {
		s.Put(testEntry(t, arg))
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	fresh := NewStore()
	n, err := fresh.Load(path)
	if err != nil || n != 3 {
		t.Fatalf("Load = %d, %v; want 3", n, err)
	}
	for _, e := range s.Snapshot() {
		got, ok := fresh.Get(e.Key)
		if !ok || got != e {
			t.Fatalf("entry %s did not round-trip: %+v vs %+v", e.Key, got, e)
		}
	}
	snap := fresh.Snapshot()
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].Key < snap[j].Key }) {
		t.Fatal("Snapshot not sorted by key")
	}
}

// TestStoreLoadRejectsTamperedEntries pins the degrade-to-miss property: an
// entry whose key does not re-derive from its canonical form is skipped, so
// a corrupted cache file can cost time but never correctness.
func TestStoreLoadRejectsTamperedEntries(t *testing.T) {
	s := NewStore()
	good := testEntry(t, 1024)
	bad := testEntry(t, 2048)
	bad.Canon += "tampered=1\n" // key no longer matches content
	path := filepath.Join(t.TempDir(), "cache.json")
	data, _ := json.Marshal(cacheFile{Schema: cacheSchema, Entries: []Entry{good, bad}})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := s.Load(path)
	if err != nil || n != 1 {
		t.Fatalf("Load = %d, %v; want 1 accepted", n, err)
	}
	if _, ok := s.Get(bad.Key); ok {
		t.Fatal("tampered entry accepted")
	}
}

func TestStoreLoadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	data, _ := json.Marshal(cacheFile{Schema: "something/else"})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore().Load(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestStoreLoadV1EntriesNeverServed pins the key-version bump.
// testdata/cache_v1.json is a cache file a bgpsimd/v1 server saved after
// answering the request below; its canonical form still walks a config field
// v2 no longer has. The file loads without error, and its entry never
// answers the same cell's v2 request: the request misses and computes.
func TestStoreLoadV1EntriesNeverServed(t *testing.T) {
	store := NewStore()
	if n, err := store.Load("testdata/cache_v1.json"); err != nil || n != 1 {
		t.Fatalf("Load = %d, %v; want the v1 entry loaded", n, err)
	}
	stale := store.Snapshot()[0]
	q := runRequest{Op: "bcast", Algo: "torus.shaddr", Size: "4K", Torus: "2x2x2", Iters: 1}
	c, err := buildCell(q)
	if err != nil {
		t.Fatal(err)
	}
	// Same cell: every v2 line but the version is in the v1 form.
	if !strings.HasPrefix(stale.Canon, "v=bgpsimd/v1\n") {
		t.Fatalf("fixture is not a v1 entry:\n%s", stale.Canon)
	}
	v1Lines := strings.Split(stale.Canon, "\n")
	for _, line := range strings.Split(CanonicalCell(c), "\n")[1:] {
		if !slices.Contains(v1Lines, line) {
			t.Fatalf("fixture describes another cell: v2 line %q missing", line)
		}
	}
	if _, ok := store.Get(KeyCell(c)); ok {
		t.Fatal("v1 entry found under the v2 key")
	}

	var runs atomic.Int64
	s := New(store, Config{RunCell: func(bench.Cell) (sim.Time, error) {
		runs.Add(1)
		return 7 * sim.Microsecond, nil
	}})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	body, _ := json.Marshal(q)
	resp, out := post(t, ts.URL+"/v1/run", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, out)
	}
	var got struct {
		PS int64 `json:"ps"`
	}
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if x := resp.Header.Get("X-Cache"); x != "miss" || got.PS != int64(7*sim.Microsecond) || runs.Load() != 1 {
		t.Fatalf("X-Cache %q, ps %d, %d runs; want a fresh miss, not the v1 answer", x, got.PS, runs.Load())
	}
}
