package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"comic/internal/datasets"
	"comic/internal/server"
)

// live is one in-process server on a 127.0.0.1 listener.
type live struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

// startServer stands up a server with program defaults: a zero-valued
// server.Config except Datasets (1 GiB index, 4 concurrent builds,
// Workers = GOMAXPROCS). wrap, when non-nil, wraps the handler (the
// traced run's http span recorder).
func startServer(graphs map[string]*datasets.Dataset, wrap func(http.Handler) http.Handler) (*live, error) {
	srv, err := server.New(server.Config{Datasets: graphs})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	lv := &live{
		srv:  srv,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + l.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { lv.done <- lv.hs.Serve(l) }()
	return lv, nil
}

// stop shuts the listener down, waits for the serve loop to end, and
// stops the server's job workers.
func (lv *live) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := lv.hs.Shutdown(ctx)
	if serr := <-lv.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	lv.srv.Close()
	return err
}

// Sample is one completed request, as its client saw it.
type Sample struct {
	Client int
	Index  int // position in the client's stream (or set-up list)
	Op     *Op
	Start  time.Time
	Dur    time.Duration
	Status int
	Body   []byte
	Err    error
}

// newHTTPClient returns the closed-loop clients' shared HTTP client:
// keep-alive connections, one per client.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients * 2,
		DisableCompression:  true,
	}}
}

// send issues one op and reads the whole reply.
func send(hc *http.Client, base string, op *Op, reqID string) (int, []byte, error) {
	req, err := http.NewRequest(op.Method(), base+op.Path(), bytes.NewReader(op.Body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(requestIDHeader, reqID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// runSetupOps sends each client's set-up list in order, the clients in
// parallel, and returns every reply.
func runSetupOps(hc *http.Client, base string, ops *[clients][]Op, tr *tracer) []Sample {
	var mu sync.Mutex
	var out []Sample
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range ops[c] {
				op := &ops[c][i]
				id := fmt.Sprintf("s%d.%d", c, i)
				t0 := time.Now()
				st, body, err := send(hc, base, op, id)
				s := Sample{Client: c, Index: i, Op: op, Start: t0, Dur: time.Since(t0), Status: st, Body: body, Err: err}
				tr.request(id, op.Route, t0, s.Dur)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out
}

// runClosedLoop drives the timed phase: each client sends its stream's
// next op as soon as the previous reply is read, until d has passed. A
// request in flight at the deadline is completed and counted.
func runClosedLoop(hc *http.Client, base string, streams [clients]*Stream, d time.Duration, tag string, tr *tracer) ([clients][]Sample, time.Duration) {
	var out [clients][]Sample
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				op := streams[c].At(i)
				id := fmt.Sprintf("%s%d.%d", tag, c, i)
				t0 := time.Now()
				st, body, err := send(hc, base, op, id)
				dur := time.Since(t0)
				out[c] = append(out[c], Sample{Client: c, Index: i, Op: op, Start: t0, Dur: dur, Status: st, Body: body, Err: err})
				tr.request(id, op.Route, t0, dur)
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}
