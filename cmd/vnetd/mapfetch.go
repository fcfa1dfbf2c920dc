package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"freemeasure/internal/wren/coord"
)

// mapFetcher periodically pulls the published bandwidth map from a
// wrenrepod /map endpoint and holds the latest accepted copy for the
// controller's ViewSource. Acceptance is generation-gated: a fetch that
// parses but carries an older generation than what we already hold is
// discarded, so a flapping or rolled-back repository can never move the
// controller's view backwards.
type mapFetcher struct {
	url      string
	interval time.Duration
	// client bounds each fetch by the poll interval, so a wedged
	// repository costs one missed poll instead of the poll loop.
	client http.Client
	cur    atomic.Pointer[coord.BandwidthMap]
	log    *slog.Logger
}

// newMapFetcher normalizes base (".../": the /map path is appended) and
// returns a fetcher that polls every interval, with nothing fetched yet.
func newMapFetcher(base string, interval time.Duration, log *slog.Logger) *mapFetcher {
	return &mapFetcher{
		url:      strings.TrimSuffix(base, "/") + "/map",
		interval: interval,
		client:   http.Client{Timeout: interval},
		log:      log,
	}
}

// Current returns the latest accepted map, nil before the first success —
// exactly the shape control.ViewSource.Map wants.
func (f *mapFetcher) Current() *coord.BandwidthMap { return f.cur.Load() }

// fetchOnce GETs, parses, and (generation permitting) installs one map.
func (f *mapFetcher) fetchOnce() error {
	resp, err := f.client.Get(f.url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil // nothing published yet; keep whatever we have
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", f.url, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	m, err := coord.ParseBandwidthMap(data)
	if err != nil {
		return err
	}
	if cur := f.cur.Load(); cur != nil && m.Generation < cur.Generation {
		return fmt.Errorf("stale map generation %d (holding %d)", m.Generation, cur.Generation)
	}
	f.cur.Store(m)
	return nil
}

// Start polls every interval until stop is closed. Failures are logged
// and the last good map stays current.
func (f *mapFetcher) Start(stop <-chan struct{}) {
	go func() {
		tick := time.NewTicker(f.interval)
		defer tick.Stop()
		if err := f.fetchOnce(); err != nil && f.log != nil {
			f.log.Warn("bandwidth map fetch", "url", f.url, "err", err)
		}
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := f.fetchOnce(); err != nil && f.log != nil {
					f.log.Warn("bandwidth map fetch", "url", f.url, "err", err)
				}
			}
		}
	}()
}
