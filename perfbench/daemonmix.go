package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"facil/internal/daemon"
	"facil/internal/exp"
	"facil/internal/run"
)

// pollEvery is how often the poller asks the daemon about the oldest
// outstanding run. It bounds the latency error at one interval.
const pollEvery = 2 * time.Millisecond

// runTimeout bounds one submission's wait for its report.
const runTimeout = 60 * time.Second

// mixServer is an in-process facild on loopback plus the benchmark's
// HTTP client for it.
type mixServer struct {
	srv     *daemon.Server
	hs      *http.Server
	served  chan error
	base    string
	hc      *http.Client
	digests digestTable
	spans   *spanLog // nil outside a traced window
}

// startMix is daemon-mix's set-up: it starts the daemon, waits until it
// answers, and runs one warm-up submission of each scenario kind on
// each of the run's seeds, whose reports are checked like any other.
// It stamps s.Ready when done.
func startMix(ctx context.Context, digests digestTable, s *sample, seeds []int64) (*mixServer, error) {
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := daemon.New(daemon.Options{Parallelism: 1})
	m := &mixServer{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		hc:      &http.Client{Timeout: runTimeout},
		digests: digests,
	}
	go func() { m.served <- m.hs.Serve(ln) }()
	for {
		var ok map[string]bool
		if err := m.call(ctx, "GET", "/healthz", "GET /healthz", nil, -1, -1, &ok); err == nil {
			break
		}
		if time.Since(start) > 10*time.Second || ctx.Err() != nil {
			m.close()
			return nil, errors.New("perfbench: daemon did not come up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, seed := range seeds {
		for _, k := range mixKinds {
			o := m.submit(ctx, -1, k.scenario(seed), time.Now())
			m.await(ctx, &o)
			s.Attempted++
			if o.failure != "" {
				s.fail("warm-up " + o.failure)
			}
		}
	}
	s.Ready = time.Now().UnixNano()
	return m, nil
}

// close stops the HTTP server and drains the daemon.
func (m *mixServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = m.hs.Shutdown(ctx) // a timed-out shutdown still closes the listener
	<-m.served
	m.srv.Close()
	m.hc.CloseIdleConnections()
}

// call makes one HTTP request, decodes a 2xx JSON answer into out and
// records it as a span under route.
func (m *mixServer) call(ctx context.Context, method, path, route string, body []byte, req, parent int, out any) error {
	start := time.Now()
	defer func() { m.spans.add(route, req, parent, start, time.Now()) }()
	hreq, err := http.NewRequestWithContext(ctx, method, m.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := m.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort, for the message only
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// outcome is one submission's life as the benchmark saw it.
type outcome struct {
	req      int
	sc       run.Scenario
	span     int
	due      time.Time
	sent     time.Time
	reported time.Time
	run      daemon.Run
	report   exp.Report
	failure  string
}

// submit POSTs sc, which was due at due; a failure is recorded in the
// outcome.
func (m *mixServer) submit(ctx context.Context, req int, sc run.Scenario, due time.Time) outcome {
	o := outcome{req: req, sc: sc, due: due}
	o.span = m.spans.add("submission "+sc.Experiments[0], req, -1, o.due, o.due)
	body, err := json.Marshal(sc)
	if err == nil {
		o.sent = time.Now()
		err = m.call(ctx, "POST", "/runs", "POST /runs", body, req, o.span, &o.run)
	}
	if err != nil {
		o.failure = scenarioKey(sc) + ": " + err.Error()
	}
	return o
}

// await polls a submitted run until it ends, then fetches and checks
// its report. It is a no-op for a submission that already failed.
func (m *mixServer) await(ctx context.Context, o *outcome) {
	if o.failure != "" {
		return
	}
	deadline := o.due.Add(runTimeout)
	path := "/runs/" + o.run.ID
	for {
		if err := m.call(ctx, "GET", path, "GET /runs/{id}", nil, o.req, o.span, &o.run); err != nil {
			o.failure = scenarioKey(o.sc) + ": " + err.Error()
			return
		}
		if s := o.run.State; s != daemon.StateQueued && s != daemon.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			o.failure = scenarioKey(o.sc) + ": no report within " + runTimeout.String()
			return
		}
		time.Sleep(pollEvery)
	}
	if o.run.State != daemon.StateDone {
		o.failure = fmt.Sprintf("%s: run %s %s: %s", scenarioKey(o.sc), o.run.ID, o.run.State, o.run.Error)
		return
	}
	if err := m.call(ctx, "GET", path+"/report", "GET /runs/{id}/report", nil, o.req, o.span, &o.report); err != nil {
		o.failure = scenarioKey(o.sc) + ": " + err.Error()
		return
	}
	o.reported = time.Now()
	m.spans.end(o.span, o.reported)
	o.failure = m.digests.check(o.sc, o.report)
}

// window plays one open-loop schedule, timed from origin, against the
// daemon: this goroutine sends each submission at its due time whatever
// the daemon is doing, and one poller goroutine collects the reports in
// submission order, which is the order the daemon's single runner
// finishes them.
func (m *mixServer) window(ctx context.Context, subs []submission, origin time.Time) []outcome {
	outs := make([]outcome, len(subs))
	sent := make(chan int, len(subs)) // sized to the number of sends
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range sent {
			m.await(ctx, &outs[i])
		}
	}()
	for i, sub := range subs {
		due := origin.Add(sub.at)
		select {
		case <-time.After(time.Until(due)):
		case <-ctx.Done():
		}
		outs[i] = m.submit(ctx, i, mixKinds[sub.kind].scenario(sub.seed), due)
		sent <- i
	}
	close(sent)
	<-done
	return outs
}

// windowStats reduces a window's outcomes.
type windowStats struct {
	latency, late, queueWait, service, http []float64
	busy                                    float64 // Σ service
	span                                    float64 // window open to last report
	elapsed                                 map[string]float64
	failures                                []string
}

func reduceWindow(outs []outcome, origin time.Time) windowStats {
	w := windowStats{elapsed: map[string]float64{}}
	for _, o := range outs {
		if o.failure != "" {
			w.failures = append(w.failures, o.failure)
		}
		if o.reported.IsZero() {
			continue // no report, so no timings
		}
		r := o.run
		lat := o.reported.Sub(o.due).Seconds()
		svc := r.Finished.Sub(*r.Started).Seconds()
		w.latency = append(w.latency, lat)
		w.late = append(w.late, o.sent.Sub(o.due).Seconds())
		w.queueWait = append(w.queueWait, r.Started.Sub(r.Submitted).Seconds())
		w.service = append(w.service, svc)
		w.http = append(w.http, lat-r.Finished.Sub(r.Submitted).Seconds())
		w.busy += svc
		w.span = max(w.span, o.reported.Sub(origin).Seconds())
		addElapsed(w.elapsed, o.report)
	}
	return w
}

// childDaemon is one daemon-mix run in a fresh process: set-up, then
// the seed's schedule over the window, traced when a profile path is
// given.
func childDaemon(ctx context.Context, o options, digests digestTable) (sample, error) {
	var s sample
	subs, seeds := mixSchedule(o.seed, o.seconds)
	m, err := startMix(ctx, digests, &s, seeds)
	if err != nil {
		return sample{}, err
	}
	defer m.close()

	var prof *profiler
	if o.profile != "" {
		if prof, err = startProfile(o.profile); err != nil {
			return sample{}, err
		}
		m.spans = prof.spans
	}
	origin, cpu0 := time.Now(), cpuSeconds()
	w := reduceWindow(m.window(ctx, subs, origin), origin)
	s.CPUS = cpuSeconds() - cpu0
	s.WallS = w.busy
	s.Latencies = w.latency
	if w.span > 0 {
		s.RunsPerS = float64(len(w.latency)) / w.span
	}
	s.Attempted += len(subs)
	s.Failures = append(s.Failures, w.failures...)
	logf("daemon-mix: %d submissions over %g s, last report at %.2f s, runner busy %.2f s, generator late p90 %.4f s",
		len(subs), o.seconds, w.span, w.busy, nearestRank(w.late, 0.9))
	if prof == nil {
		return s, nil
	}
	if s.Layer, err = prof.stop(); err != nil {
		return sample{}, err
	}
	for k, v := range w.elapsed {
		s.Layer[k] = v
	}
	s.Layer["daemon.queue_wait_p50_s"] = median(w.queueWait)
	s.Layer["daemon.service_p50_s"] = median(w.service)
	s.Layer["daemon.service_p90_s"] = nearestRank(w.service, 0.9)
	s.Layer["daemon.http_p50_s"] = median(w.http)
	s.Layer["loadgen.late_p90_s"] = nearestRank(w.late, 0.9)
	if err := addProbe(&s, o.seed); err != nil {
		return sample{}, err
	}
	return s, prof.spans.writeChrome(o.spans)
}
