package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/perf"
	"rago/internal/trace"
)

// ErrServeEnded is returned by Server.Switch when the replay has already
// drained: there is nothing left to migrate, so the switch is refused
// rather than starting workers no request will ever reach. Controllers
// racing the end of a run should treat it as a benign stop signal.
var ErrServeEnded = errors.New("serve: replay has already drained")

// epoch is one plan's tenure on the Server: the dataplane executing it
// plus the lifecycle timestamps the chip-second accounting needs.
type epoch struct {
	dp   *dataplane
	plan *engine.Plan

	// idx is the epoch's ordinal (0 = initial plan); bus, when non-nil,
	// receives the drain event once the last in-flight request retires.
	idx int
	bus *obs.Bus

	startV   float64
	admitted atomic.Int64

	// retired flips when the epoch stops admitting; the dataplane keeps
	// running until its in-flight count drains to zero, then closes.
	retired  atomic.Bool
	retiredV float64
	drainedV float64
	closed   sync.Once
}

// close shuts the epoch's workers down once, recording the drain time.
func (e *epoch) close(v float64) {
	e.closed.Do(func() {
		e.drainedV = v
		e.dp.stop()
		if e.bus.Active() && e.retired.Load() {
			e.bus.Publish(obs.Event{Kind: obs.KindSwitchDrain, T: v, N: e.idx,
				Dur: v - e.retiredV, Track: "control"})
		}
	})
}

// EpochStat describes one plan's tenure in a ServerReport.
type EpochStat struct {
	// Schedule renders the plan's schedule; Chips is the XPUs it holds.
	Schedule string `json:"schedule"`
	Chips    int    `json:"chips"`
	// AnalyticQPS is the plan's assembled saturation throughput.
	AnalyticQPS float64 `json:"analytic_qps"`
	// StartV/RetiredV/DrainedV are the virtual times the epoch began
	// admitting, stopped admitting, and finished its last request
	// (RetiredV and DrainedV are the run end for the final epoch).
	StartV   float64 `json:"start_v"`
	RetiredV float64 `json:"retired_v"`
	DrainedV float64 `json:"drained_v"`
	// Admitted counts requests this epoch's plan served.
	Admitted int64 `json:"admitted"`
	// ChipSeconds is Chips times the epoch's resource-holding span
	// (activation through drain).
	ChipSeconds float64 `json:"chip_seconds"`
}

// ServerReport extends the per-run Report with the plan-switching
// history: one EpochStat per plan tenure and the integrated chip-seconds
// the switching spent (each epoch charged from activation until its last
// in-flight request drained — overlapping drains are genuinely
// double-provisioned, so they are double-charged).
type ServerReport struct {
	Report
	Epochs []EpochStat `json:"epochs"`
	// ChipSeconds is the sum over epochs; DurationV the virtual length
	// of the whole run. Static provisioning at P chips for comparison
	// costs P * DurationV.
	ChipSeconds float64 `json:"chip_seconds"`
	DurationV   float64 `json:"duration_v"`
	// Switches is the number of plan changes (epochs minus one).
	Switches int `json:"switches"`
}

// Server is a live serving engine that can hot-swap between compiled
// plans of the same pipeline mid-replay. New admissions route to the
// current plan's dataplane; a Switch retires the old plan, whose
// in-flight requests finish on its own workers before they shut down
// (drain-and-migrate — no request is dropped or served twice). Like
// Runtime it is single-use: build, Serve one trace, read the report.
// Switch and Telemetry are safe to call concurrently with Serve; the
// SLO-aware controller in internal/control is the intended caller.
type Server struct {
	opts Options

	clock clock
	coll  collector

	// mu orders admissions against switches: replay admits under RLock,
	// Switch swaps the current epoch under Lock, so once Switch returns
	// no new request can land on the retired epoch.
	mu     sync.RWMutex
	cur    *epoch
	epochs []*epoch

	wg          sync.WaitGroup
	inflight    atomic.Int64
	maxInflight int64
	bound       int

	served  atomic.Bool
	live    atomic.Bool
	started chan struct{}
	ended   bool // under mu: replay drained, no further switches
	endV    float64

	searchMu  sync.Mutex
	searchErr error
}

// NewServer builds a multi-plan serving engine starting on the given
// compiled plan (see engine.Compile or core.Assembler.Compile).
// Inexecutable plans (engine.Plan.Executable) and negative Options are
// rejected.
func NewServer(initial *engine.Plan, opts Options) (*Server, error) {
	if err := initial.Executable(); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	s := &Server{opts: opts.withDefaults(), started: make(chan struct{})}
	s.cur = &epoch{plan: initial}
	return s, nil
}

// Plan returns the compiled plan currently receiving admissions.
func (s *Server) Plan() *engine.Plan {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.plan
}

// Started is closed when Serve has begun replaying (the virtual clock is
// live); controllers wait on it before polling telemetry.
func (s *Server) Started() <-chan struct{} { return s.started }

// Now returns the current virtual time (0 before Serve starts).
func (s *Server) Now() float64 {
	if !s.live.Load() {
		return 0
	}
	return s.clock.now()
}

// AfterVirtual returns a channel that fires once virtual time v has
// passed. Only valid after Started.
func (s *Server) AfterVirtual(v float64) <-chan time.Time {
	return time.After(time.Until(s.clock.wallAt(v)))
}

// Telemetry snapshots the sliding-window serving metrics over the
// trailing window virtual seconds; the zero Window before Serve starts.
func (s *Server) Telemetry(window float64) Window {
	if !s.live.Load() {
		return Window{}
	}
	w := s.coll.snapshot(s.clock.now(), window, int(s.inflight.Load()))
	if s.opts.Cache != nil {
		st := s.opts.Cache.Stats()
		w.CacheHitRate = st.HitRate
		w.CacheSavedTokens = st.SavedTokens
	}
	return w
}

// Switch hot-swaps admissions onto plan, which must execute the same
// stage graph as the running plans (a schedule of the same pipeline) and
// pass the same executability check NewServer applies. The retired plan's
// in-flight requests finish on its own workers, which shut down once
// drained; the new plan's workers begin admitting immediately. Safe to
// call concurrently with Serve. Switching to the plan already current is
// a no-op.
func (s *Server) Switch(plan *engine.Plan) error {
	if err := plan.Executable(); err != nil {
		return err
	}
	if !s.live.Load() {
		return fmt.Errorf("serve: Switch before Serve has started")
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return ErrServeEnded
	}
	old := s.cur
	if old.plan == plan {
		s.mu.Unlock()
		return nil
	}
	if !old.plan.CompatibleWith(plan) {
		s.mu.Unlock()
		return fmt.Errorf("serve: plan executes a different stage graph; only schedules of the same pipeline are hot-swappable")
	}
	now := s.clock.now()
	next := &epoch{plan: plan, startV: now, idx: len(s.epochs), bus: s.opts.Bus}
	if s.opts.Bus.Active() {
		s.opts.Bus.Publish(obs.Event{Kind: obs.KindSwitchBegin, T: now, N: next.idx,
			Track: "control", Payload: obs.SwitchInfo{
				Epoch: next.idx,
				From:  old.plan.Sched.Describe(old.plan.Pipe),
				To:    plan.Sched.Describe(plan.Pipe),
			}})
	}
	next.dp = newDataplane(plan, s.opts, s.clock, &s.coll, s.bound, s.onComplete(next), s.setSearchErr)
	next.dp.launch()
	s.cur = next
	s.epochs = append(s.epochs, next)
	old.retiredV = now
	old.retired.Store(true)
	s.mu.Unlock()
	if s.opts.Bus.Active() {
		s.opts.Bus.Publish(obs.Event{Kind: obs.KindSwitchCommit, T: now, N: next.idx,
			Track: "control", Payload: obs.SwitchInfo{
				Epoch: next.idx,
				From:  old.plan.Sched.Describe(old.plan.Pipe),
				To:    plan.Sched.Describe(plan.Pipe),
			}})
	}
	// If the old epoch was already idle there is no completion left to
	// observe the retirement flag; close it here. sync.Once makes the
	// race with a concurrent last completion benign.
	if old.dp.inflight.Load() == 0 {
		old.close(now)
	}
	return nil
}

// onComplete returns the completion callback wiring an epoch's dataplane
// back into the Server's global bookkeeping and drain detection.
func (s *Server) onComplete(e *epoch) func(*request, float64) {
	return func(_ *request, done float64) {
		s.inflight.Add(-1)
		if e.retired.Load() && e.dp.inflight.Load() == 0 {
			e.close(done)
		}
		s.wg.Done()
	}
}

// Serve replays the trace, routing each admission to the plan current at
// its arrival, and blocks until every request has completed or been
// rejected. Single-use.
func (s *Server) Serve(reqs []trace.Request) (*ServerReport, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serve: empty trace")
	}
	if !s.served.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("serve: Server is single-use; build a new one per trace")
	}
	bound := s.opts.MaxInFlight
	if bound <= 0 {
		bound = len(reqs)
	}
	s.bound = bound
	s.maxInflight = int64(bound)
	s.coll.init(s.cur.plan)
	s.clock = newClock(s.opts.Speedup)
	first := s.cur
	first.bus = s.opts.Bus
	first.dp = newDataplane(first.plan, s.opts, s.clock, &s.coll, bound, s.onComplete(first), s.setSearchErr)
	first.dp.launch()
	s.epochs = append(s.epochs, first)
	s.live.Store(true)
	close(s.started)

	var windowsDone chan struct{}
	var stopWindows chan struct{}
	if s.opts.Bus != nil && s.opts.WindowEvery > 0 {
		windowsDone = make(chan struct{})
		stopWindows = make(chan struct{})
		go s.streamWindows(stopWindows, windowsDone)
	}

	s.wg.Add(len(reqs))
	go s.replay(reqs)
	s.wg.Wait()
	if stopWindows != nil {
		close(stopWindows)
		<-windowsDone
	}

	s.mu.Lock()
	s.ended = true
	s.endV = s.clock.now()
	for _, e := range s.epochs {
		if !e.retired.Load() {
			e.retiredV = s.endV
			e.retired.Store(true)
		}
		e.close(s.endV)
	}
	rep := s.buildReport()
	s.mu.Unlock()

	s.searchMu.Lock()
	err := s.searchErr
	s.searchMu.Unlock()
	return rep, err
}

// replay paces open-loop arrivals, applying admission control and routing
// each admission to the epoch current at its arrival.
func (s *Server) replay(reqs []trace.Request) {
	bus := s.opts.Bus
	for i := range reqs {
		r := &reqs[i]
		s.clock.sleepUntil(r.Arrival)
		if s.inflight.Load() >= s.maxInflight {
			s.coll.reject(r.Arrival)
			if bus.Active() {
				bus.Publish(obs.Event{Kind: obs.KindReject, T: r.Arrival, Req: r.ID})
			}
			s.wg.Done()
			continue
		}
		if bus.Active() {
			bus.Publish(obs.Event{Kind: obs.KindAdmit, T: r.Arrival, Req: r.ID})
		}
		// Admission happens under the read lock so a concurrent Switch
		// cannot retire an epoch between choosing it and counting the
		// request on it: after Switch returns, the retired dataplane's
		// in-flight count can only fall.
		s.mu.RLock()
		e := s.cur
		s.inflight.Add(1)
		e.dp.inflight.Add(1)
		e.admitted.Add(1)
		s.mu.RUnlock()
		s.coll.admit(r.Arrival)
		e.dp.admit(e.dp.newRequest(r), r.Arrival)
	}
}

// streamWindows publishes a KindWindow snapshot onto the bus every
// WindowEvery virtual seconds (the snapshot's trailing window is the same
// width), until stopped at the end of the replay. The snapshots ride the
// bus as Payload, so obs stays free of serve types.
func (s *Server) streamWindows(stop, done chan struct{}) {
	defer close(done)
	every := s.opts.WindowEvery
	for k := 1; ; k++ {
		v := float64(k) * every
		select {
		case <-s.AfterVirtual(v):
		case <-stop:
			return
		}
		w := s.Telemetry(every)
		s.opts.Bus.Publish(obs.Event{Kind: obs.KindWindow, T: w.Now,
			Track: "telemetry", N: k, Payload: w})
	}
}

// buildReport assembles the ServerReport. Called under s.mu after the
// WaitGroup barrier, so no concurrent mutation remains. A single-epoch
// run carries its plan's analytical reference; a multi-plan run has no
// single reference, so Analytic stays zero with HasAnalytic false.
func (s *Server) buildReport() *ServerReport {
	var analytic perf.Metrics
	hasAnalytic := len(s.epochs) == 1
	if hasAnalytic {
		analytic = s.epochs[0].plan.Metrics
	}
	base := s.coll.report(analytic, hasAnalytic, s.opts.Speedup,
		time.Since(s.clock.start).Seconds())
	if hasAnalytic {
		base.BatchPolicy = s.epochs[0].plan.Sched.FormPolicy.String()
		base.ChunkQuantum = s.epochs[0].plan.Sched.ChunkQuantum
	}
	if s.opts.Cache != nil {
		st := s.opts.Cache.Stats()
		base.Cache = &st
	}
	rep := &ServerReport{Report: *base, DurationV: s.endV, Switches: len(s.epochs) - 1}
	for _, e := range s.epochs {
		end := e.drainedV
		if end < e.retiredV {
			end = e.retiredV
		}
		cs := float64(e.plan.Sched.ChipsUsed()) * (end - e.startV)
		rep.Epochs = append(rep.Epochs, EpochStat{
			Schedule:    e.plan.Sched.Describe(e.plan.Pipe),
			Chips:       e.plan.Sched.ChipsUsed(),
			AnalyticQPS: e.plan.Metrics.QPS,
			StartV:      e.startV,
			RetiredV:    e.retiredV,
			DrainedV:    e.drainedV,
			Admitted:    e.admitted.Load(),
			ChipSeconds: cs,
		})
		rep.ChipSeconds += cs
	}
	return rep
}

func (s *Server) setSearchErr(err error) {
	s.searchMu.Lock()
	if s.searchErr == nil {
		s.searchErr = err
	}
	s.searchMu.Unlock()
}

// String renders the switching report under the base latency report.
func (r *ServerReport) String() string {
	out := r.Report.String()
	out += fmt.Sprintf("plan switches %d, chip-seconds %.0f over %.1fs virtual\n", r.Switches, r.ChipSeconds, r.DurationV)
	for i, e := range r.Epochs {
		out += fmt.Sprintf("epoch %d  [%7.1fs, %7.1fs] drain %7.1fs  chips %3d  admitted %6d  %s\n",
			i, e.StartV, e.RetiredV, e.DrainedV, e.Chips, e.Admitted, e.Schedule)
	}
	return out
}
