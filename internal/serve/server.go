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
	"rago/internal/pipeline"
	"rago/internal/trace"
)

// ErrServeEnded is returned by Server.Switch when the replay has already
// drained: there is nothing left to migrate, so the switch is refused
// rather than starting a plan no request will ever reach. Controllers
// racing the end of a run should treat it as a benign stop signal.
var ErrServeEnded = errors.New("serve: replay has already drained")

// epoch is one plan's tenure on the Server: the engine.Sink wiring the
// plan's core to the run's tally (its epoch sink, under the collector's
// lock) and to real search, and the lifecycle timestamps the chip-second
// accounting needs.
type epoch struct {
	srv   *Server
	plan  *engine.Plan
	idx   int
	tally engine.Sink // the run tally's epoch idx; the driver's

	startV float64
	// retiredV is when the Switch that retired the epoch started its
	// successor; the driver closes a retired epoch once the loop reports it
	// drained.
	retiredV float64
	drainedV float64
	closed   bool

	// ahead holds, per retrieval slot, the search of the batch the request
	// heading the slot's queue will lead, until that batch dispatches.
	ahead []*search
}

func (e *epoch) Arrived(r int, admitted bool) {
	c := &e.srv.coll
	c.mu.Lock()
	e.tally.Arrived(r, admitted)
	c.mu.Unlock()
}

func (e *epoch) Enqueued(r, slot, depth int) {
	c := &e.srv.coll
	c.mu.Lock()
	e.tally.Enqueued(r, slot, depth)
	c.mu.Unlock()
	e.srv.joined(e, r, slot, depth)
}

func (e *epoch) Dispatched(res int, b engine.Batch, c engine.BatchCost, at float64) {
	s := e.srv
	s.coll.mu.Lock()
	e.tally.Dispatched(res, b, c, at)
	s.coll.mu.Unlock()
	if s.opts.searchOn() && e.plan.StepAt(b.Slot).Stage.Kind == pipeline.KindRetrieval {
		s.startSearch(e, res, b, at+c.Latency)
	}
}

func (e *epoch) Completed(r int, d engine.Completion) {
	c := &e.srv.coll
	c.mu.Lock()
	e.tally.Completed(r, d)
	c.completed(r, d)
	c.mu.Unlock()
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
// plans of the same pipeline mid-replay. Each request is admitted by the
// plan current at its arrival; a Switch retires the old plan, whose
// in-flight requests finish on their own core (drain-and-migrate — no
// request is dropped or served twice); a Server never switched runs one
// plan and reports its analytical reference. It is single-use: build,
// Serve one trace, read the report. Switch and Telemetry are safe to call
// concurrently with Serve; the SLO-aware controller in internal/control is
// the intended caller of Switch.
type Server struct {
	opts Options

	clock clock
	coll  collector
	led   *engine.Ledger

	// mu orders switches against the driver, which reads the clock and
	// epochs under it at each wake. The last epoch is the current plan's.
	mu     sync.RWMutex
	epochs []*epoch
	ended  bool // replay drained, no further switches
	endV   float64

	served  atomic.Bool
	live    atomic.Bool
	started chan struct{}
	atV     atomic.Pointer[float64] // the running At callback's instant

	// The driver's loop, the epochs it runs and At calls made before Serve.
	loop    *engine.Loop
	running []*epoch
	early   []func()

	// Real search: the batches whose search is running (driver only), the
	// first error, and the recycled query storage.
	searches   []*search
	searchErr  error
	searchBufs sync.Pool
}

// NewServer builds a multi-plan serving engine starting on the given
// compiled plan (see engine.Compile or core.Optimizer.Compile).
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
	s.epochs = []*epoch{{srv: s, plan: initial}}
	return s, nil
}

// Plan returns the compiled plan currently receiving admissions.
func (s *Server) Plan() *engine.Plan {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epochs[len(s.epochs)-1].plan
}

// Started is closed when Serve has begun replaying (the virtual clock is
// live); controllers wait on it before polling telemetry.
func (s *Server) Started() <-chan struct{} { return s.started }

// At runs fn on the driver at virtual time v, ahead of every arrival and
// core event due then, at any speedup; while fn runs the server's now is v,
// so Telemetry snapshots and a Switch takes effect at v. Call At before Serve
// or from an At callback, for a v not yet passed. It never extends a run.
func (s *Server) At(v float64, fn func()) {
	if s.loop == nil {
		s.early = append(s.early, func() { s.At(v, fn) })
		return
	}
	s.loop.At(v, func() {
		s.atV.Store(&v)
		fn()
		s.atV.Store(nil)
		s.addEpochs()
	})
}

// now is the virtual now: the running At callback's instant, else the
// clock's reading.
func (s *Server) now() float64 {
	if v := s.atV.Load(); v != nil {
		return *v
	}
	return s.clock.now()
}

// Telemetry snapshots the sliding-window serving metrics over the
// trailing window virtual seconds; the zero Window before Serve starts.
func (s *Server) Telemetry(window float64) Window {
	if !s.live.Load() {
		return Window{}
	}
	w := s.coll.snapshot(s.now(), window)
	if s.opts.Cache != nil {
		st := s.opts.Cache.Stats()
		w.CacheHitRate = st.HitRate
		w.CacheSavedTokens = st.SavedTokens
	}
	return w
}

// Switch hot-swaps admissions onto plan, which must execute the same
// stage graph as the running plans (a schedule of the same pipeline) and
// pass the same executability check NewServer applies. The new plan's
// core admits every request arriving from the switch instant (the virtual
// now, read under mu, which the driver has not yet passed) on; the retired
// plan's in-flight requests finish on its own core, which closes once
// drained. Safe to call concurrently with Serve. Switching to the plan
// already current is a no-op.
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
	old := s.epochs[len(s.epochs)-1]
	if old.plan == plan {
		s.mu.Unlock()
		return nil
	}
	if !old.plan.CompatibleWith(plan) {
		s.mu.Unlock()
		return fmt.Errorf("serve: plan executes a different stage graph; only schedules of the same pipeline are hot-swappable")
	}
	now := max(s.now(), old.startV)
	next := &epoch{srv: s, plan: plan, startV: now, idx: len(s.epochs)}
	info := obs.SwitchInfo{
		Epoch: next.idx,
		From:  old.plan.Sched.Describe(old.plan.Pipe),
		To:    plan.Sched.Describe(plan.Pipe),
	}
	if s.opts.Bus.Active() {
		s.opts.Bus.Publish(obs.Event{Kind: obs.KindSwitchBegin, T: now, N: next.idx,
			Track: "control", Payload: info})
	}
	s.epochs = append(s.epochs, next)
	old.retiredV = now
	s.mu.Unlock()
	if s.opts.Bus.Active() {
		s.opts.Bus.Publish(obs.Event{Kind: obs.KindSwitchCommit, T: now, N: next.idx,
			Track: "control", Payload: info})
	}
	return nil
}

// Serve replays the trace, routing each admission to the plan current at
// its arrival, and blocks until every request has completed or been
// rejected. The calling goroutine is the driver. Single-use.
func (s *Server) Serve(reqs []trace.Request) (*ServerReport, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serve: empty trace")
	}
	if !s.served.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("serve: Server is single-use; build a new one per trace")
	}
	first := s.epochs[0].plan
	s.led = engine.NewLedger(first, reqs, s.opts.MaxInFlight)
	s.coll.start(first, s.led, len(reqs))
	s.loop = engine.NewLoop(s.led)
	if s.opts.Bus != nil && s.opts.WindowEvery > 0 {
		s.streamWindows(1)
	}
	for _, at := range s.early {
		at()
	}
	s.clock = newClock(s.opts.Speedup)
	s.live.Store(true)
	close(s.started)
	s.drive()

	// The run ends at its last completion, as a retired epoch drains at its
	// own, but never before the newest epoch started.
	s.mu.Lock()
	s.ended = true
	s.endV = max(s.coll.tally.Total().LastDone, s.epochs[len(s.epochs)-1].startV)
	for i, e := range s.epochs {
		switch {
		case e.closed:
		case i < len(s.epochs)-1:
			s.close(e)
		default:
			e.retiredV, e.drainedV, e.closed = s.endV, s.endV, true
		}
	}
	rep := s.buildReport()
	s.mu.Unlock()
	return rep, s.searchErr
}

// drive is the wall driver: engine.Loop plus sleeping. Each wake reads the
// virtual clock, adds a core to the loop for each epoch Switch started,
// advances the loop to the clock's reading and sleeps until the next
// event's wall instant. It returns once every request has arrived and no
// core has an event left.
func (s *Server) drive() {
	for before := s.beforeEvent; ; {
		next, ok := s.loop.Advance(s.addEpochs(), before)
		if !ok {
			return
		}
		s.clock.sleepUntil(next)
	}
}

// addEpochs adds a core to the loop for each epoch started since the last
// call, and returns the clock's reading, taken with the epochs.
func (s *Server) addEpochs() float64 {
	s.mu.RLock()
	now, eps := s.clock.now(), s.epochs[len(s.running):]
	s.mu.RUnlock()
	for _, e := range eps {
		e.tally = s.coll.tally.Epoch(e.idx)
		s.loop.Add(engine.NewCore(e.plan, s.led, s.opts.FlushTimeout, s.opts.Cache, s.opts.Bus, e), e.startV)
		s.running = append(s.running, e)
	}
	return now
}

// beforeEvent finishes the real searches due by t and closes the retired
// epochs the loop reports drained, ahead of each loop event at t (so at
// the same point of the run at any speedup).
func (s *Server) beforeEvent(t float64) {
	s.awaitSearches(t)
	for i, e := range s.running[:len(s.running)-1] {
		if !e.closed && s.loop.Drained(i) {
			s.close(e)
		}
	}
}

// close records a retired epoch's drain: its last completion, or its
// retirement when it was already idle.
func (s *Server) close(e *epoch) {
	e.closed = true
	e.drainedV = max(s.coll.tally.EpochCount(e.idx).LastDone, e.retiredV)
	if s.opts.Bus.Active() {
		s.opts.Bus.Publish(obs.Event{Kind: obs.KindSwitchDrain, T: e.drainedV, N: e.idx,
			Dur: e.drainedV - e.retiredV, Track: "control"})
	}
}

// streamWindows publishes a KindWindow snapshot of the trailing
// WindowEvery onto the bus at k*WindowEvery virtual seconds, then k+1, and
// so on. The snapshots ride the bus as Payload, so obs stays free of serve
// types.
func (s *Server) streamWindows(k int) {
	every := s.opts.WindowEvery
	s.At(float64(k)*every, func() {
		w := s.Telemetry(every)
		s.opts.Bus.Publish(obs.Event{Kind: obs.KindWindow, T: w.Now,
			Track: "telemetry", N: k, Payload: w})
		s.streamWindows(k + 1)
	})
}

// buildReport assembles the ServerReport. Called under s.mu once the
// driver has returned, so no concurrent mutation remains. A single-epoch
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
		// The conversion rounds the product, so no architecture fuses it
		// into the ChipSeconds sum.
		cs := float64(float64(e.plan.Sched.ChipsUsed()) * (e.drainedV - e.startV))
		rep.Epochs = append(rep.Epochs, EpochStat{
			Schedule:    e.plan.Sched.Describe(e.plan.Pipe),
			Chips:       e.plan.Sched.ChipsUsed(),
			AnalyticQPS: e.plan.Metrics.QPS,
			StartV:      e.startV,
			RetiredV:    e.retiredV,
			DrainedV:    e.drainedV,
			Admitted:    int64(s.coll.tally.EpochCount(e.idx).Admitted),
			ChipSeconds: cs,
		})
		rep.ChipSeconds += cs
	}
	return rep
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
