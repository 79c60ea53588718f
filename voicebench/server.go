package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/web"
)

// dataSeed is the dataset seed: cmd/voiceolapd's -seed default. The
// workload seed drives the request streams only, so every workload asks
// its questions of the same data.
const dataSeed = 1

// measureCol and measureDesc are the flights measure as the daemon
// registers it.
const (
	measureCol  = "cancelled"
	measureDesc = "average cancellation probability"
)

// plannerConfig is cmd/voiceolapd's default core.Config with one
// deliberate deviation: Clock is left nil, so the web layer gives every
// request its own simulated clock. The daemon shares one SimClock across
// requests, which lets concurrent answers advance each other's playback
// and cut planning short (see NOTES.md).
func plannerConfig() core.Config {
	return core.Config{
		Seed:                 dataSeed,
		SimRoundCost:         time.Millisecond,
		MaxRoundsPerSentence: 2000,
		MaxTreeNodes:         100000,
		PlannerWorkers:       1,
	}
}

// serverOptions is cmd/voiceolapd's default web.Options (flag defaults).
func serverOptions() web.Options {
	return web.Options{
		RequestTimeout:  30 * time.Second,
		MaxBodyBytes:    64 << 10,
		MaxConcurrent:   32,
		BrownoutWindow:  64,
		BrownoutHold:    2 * time.Second,
		BreakerCooldown: 10 * time.Second,
		LogCap:          10000,
		MaxSessions:     1024,
		SessionTTL:      time.Hour,
		SemCacheEntries: 1024,
		SemCacheViews:   64,
		PoolSize:        4,
	}
}

// serveTimes records each request's time inside the server's ServeHTTP,
// keyed by the client's request id header.
type serveTimes struct {
	mu sync.Mutex
	d  map[int64]time.Duration
}

func (s *serveTimes) get(id int64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d[id]
}

// reqIDHeader carries the benchmark's request id to the timing wrapper.
const reqIDHeader = "X-Bench-Req"

// bench is one running in-process server with its loopback listener.
type bench struct {
	flights *olap.Dataset
	srv     *web.Server
	hs      *http.Server
	base    string
	client  *http.Client
	serve   *serveTimes
	served  chan struct{}
}

// startBench generates the datasets, builds the server the way
// cmd/voiceolapd does, and serves it over loopback HTTP.
func startBench(flightRows int) (*bench, error) {
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: flightRows, Seed: dataSeed})
	if err != nil {
		return nil, err
	}
	salaries, err := datagen.Salaries(datagen.SalariesConfig{Seed: dataSeed + 1})
	if err != nil {
		return nil, err
	}
	srv, err := web.NewServerWith(plannerConfig(), serverOptions(),
		web.DatasetInfo{Name: "flights", Dataset: flights, MeasureCol: measureCol,
			MeasureDesc: measureDesc, Format: speech.PercentFormat},
		web.DatasetInfo{Name: "salaries", Dataset: salaries, MeasureCol: "midCareerSalary",
			MeasureDesc: "average mid-career salary", Format: speech.ThousandsFormat},
	)
	if err != nil {
		return nil, err
	}
	st := &serveTimes{d: make(map[int64]time.Duration)}
	inner := srv.Handler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inner.ServeHTTP(w, r)
		d := time.Since(start)
		if id, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64); err == nil {
			st.mu.Lock()
			st.d[id] = d
			st.mu.Unlock()
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{
		Handler:           handler,
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	b := &bench{
		flights: flights,
		srv:     srv,
		hs:      hs,
		base:    "http://" + ln.Addr().String(),
		serve:   st,
		served:  make(chan struct{}),
		client: &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     clients,
				MaxIdleConnsPerHost: clients,
				DisableCompression:  true,
			},
		},
	}
	go func() {
		defer close(b.served)
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "voicebench: serve:", err)
		}
	}()
	return b, nil
}

// stop shuts the HTTP server down, stops the view builder, and waits for
// the serve goroutine to exit.
func (b *bench) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.hs.Shutdown(ctx); err != nil {
		b.hs.Close()
	}
	<-b.served
	b.srv.Close()
	b.client.CloseIdleConnections()
}

// get fetches a server endpoint's body.
func (b *bench) get(path string) ([]byte, error) {
	resp, err := b.client.Get(b.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
