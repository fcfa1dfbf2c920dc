package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"freemeasure/internal/wren/coord"
)

// mapServer stands in for a wrenrepod /map endpoint whose answer the test
// swaps between fetches.
type mapServer struct {
	mu     sync.Mutex
	status int
	body   []byte
}

func (s *mapServer) set(status int, body []byte) {
	s.mu.Lock()
	s.status, s.body = status, body
	s.mu.Unlock()
}

func (s *mapServer) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	status, body := s.status, s.body
	s.mu.Unlock()
	w.WriteHeader(status)
	w.Write(body)
}

// mapBytes serializes a one-path map at generation gen.
func mapBytes(gen uint64, mbps float64) []byte {
	m := &coord.BandwidthMap{
		Epoch: 1, Generation: gen, StoreVersion: gen,
		Entries: []coord.MapEntry{{Path: coord.Path{From: "h1", To: "h2"}, Mbps: mbps}},
	}
	return m.Bytes()
}

// newTestFetcher points a fetcher at a fresh mapServer and installs the
// generation-5 map it serves first.
func newTestFetcher(t *testing.T) (*mapFetcher, *mapServer) {
	t.Helper()
	ms := &mapServer{}
	ms.set(http.StatusOK, mapBytes(5, 40))
	srv := httptest.NewServer(ms)
	t.Cleanup(srv.Close)
	f := newMapFetcher(srv.URL+"/", time.Second, nil)
	if err := f.fetchOnce(); err != nil {
		t.Fatalf("first fetch: %v", err)
	}
	if m := f.Current(); m == nil || m.Generation != 5 {
		t.Fatalf("first fetch installed %+v, want generation 5", m)
	}
	return f, ms
}

// heldMbps is the h1>h2 bandwidth of the map the fetcher holds.
func heldMbps(t *testing.T, f *mapFetcher) float64 {
	t.Helper()
	e, ok := f.Current().Lookup("h1", "h2")
	if !ok {
		t.Fatal("held map lost the h1>h2 entry")
	}
	return e.Mbps
}

func TestMapFetchNotFoundKeepsHeldMap(t *testing.T) {
	f, ms := newTestFetcher(t)
	ms.set(http.StatusNotFound, nil)
	if err := f.fetchOnce(); err != nil {
		t.Fatalf("404 fetch: %v", err)
	}
	if gen := f.Current().Generation; gen != 5 || heldMbps(t, f) != 40 {
		t.Fatalf("404 replaced the held map: generation %d, %v Mbit/s", gen, heldMbps(t, f))
	}
}

func TestMapFetchRejectsOlderGeneration(t *testing.T) {
	f, ms := newTestFetcher(t)
	// A rolled-back repository serves an older generation.
	ms.set(http.StatusOK, mapBytes(4, 10))
	if err := f.fetchOnce(); err == nil {
		t.Fatal("older generation accepted")
	}
	if gen := f.Current().Generation; gen != 5 || heldMbps(t, f) != 40 {
		t.Fatalf("older generation replaced the held map: generation %d, %v Mbit/s", gen, heldMbps(t, f))
	}
}

func TestMapFetchInstallsEqualOrNewerGeneration(t *testing.T) {
	f, ms := newTestFetcher(t)
	for _, step := range []struct {
		gen  uint64
		mbps float64
	}{{5, 45}, {6, 60}} {
		ms.set(http.StatusOK, mapBytes(step.gen, step.mbps))
		if err := f.fetchOnce(); err != nil {
			t.Fatalf("generation %d: %v", step.gen, err)
		}
		if gen := f.Current().Generation; gen != step.gen || heldMbps(t, f) != step.mbps {
			t.Fatalf("holding generation %d at %v Mbit/s, want %d at %v",
				gen, heldMbps(t, f), step.gen, step.mbps)
		}
	}
}

func TestMapFetchRejectsPathCountMismatch(t *testing.T) {
	f, ms := newTestFetcher(t)
	bad := bytes.Replace(mapBytes(6, 60), []byte("path_count=1"), []byte("path_count=2"), 1)
	ms.set(http.StatusOK, bad)
	if err := f.fetchOnce(); err == nil {
		t.Fatal("map with a path_count mismatch accepted")
	}
	if gen := f.Current().Generation; gen != 5 || heldMbps(t, f) != 40 {
		t.Fatalf("mismatched map replaced the held one: generation %d, %v Mbit/s", gen, heldMbps(t, f))
	}
}

// A repository that accepts the connection and never answers must cost
// one poll interval, not the poll loop.
func TestMapFetchWedgedServerTimesOut(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) }) // runs before srv.Close

	const interval = 200 * time.Millisecond
	f := newMapFetcher(srv.URL, interval, nil)
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- f.fetchOnce() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("wedged fetch reported success")
		}
		if took := time.Since(start); took < interval {
			t.Fatalf("fetch gave up after %v, before the %v interval", took, interval)
		}
	case <-time.After(10 * interval):
		t.Fatalf("fetch still blocked after %v against a wedged server", 10*interval)
	}
	if f.Current() != nil {
		t.Fatal("wedged fetch installed a map")
	}
}
