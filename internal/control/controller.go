package control

import (
	"errors"
	"fmt"

	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/serve"
	"rago/internal/trace"
)

// Config tunes the control loop. All times are virtual (schedule)
// seconds.
type Config struct {
	// SLO is the objective the controller enforces.
	SLO SLO `json:"slo"`
	// Window is the telemetry sliding window the decisions read.
	// Default 30.
	Window float64 `json:"window"`
	// Interval is the control period: one decision per tick. Default 10.
	Interval float64 `json:"interval"`
	// Headroom is the capacity margin: the controller targets a plan
	// sustaining ArrivalRate*Headroom. Default 1.25.
	Headroom float64 `json:"headroom"`
	// HoldDown is the minimum time after any switch before the
	// controller may scale *down* (up-switches are never held down,
	// an SLO is at stake). Default 3*Interval.
	HoldDown float64 `json:"hold_down"`
	// MinSamples is the fewest windowed completions a latency quantile
	// needs before it may trigger an SLO reaction. Default 20.
	MinSamples int `json:"min_samples"`
	// CacheGain weights the capacity staircase by the observed reuse-cache
	// hit rate: a hit rate h discounts the load-tracking target rate by
	// 1/(1 + CacheGain*h) — a prefix-cached plan sustains more QPS than
	// its (cache-blind) analytic capacity, so the controller may sit one
	// step lower on the staircase under hot traffic. 0 (the default)
	// ignores the cache entirely, keeping cache-less deployments
	// bit-identical. Calibrate against the measured cached-vs-uncached QPS
	// ratio (e.g. BENCH_cache.json); SLO upshifts still override, so an
	// optimistic gain degrades to a reactive correction, not a violation.
	CacheGain float64 `json:"cache_gain,omitempty"`
	// MinRecall is the retrieval-quality floor (recall@k, in [0, 1]): the
	// controller degrades recall gracefully under overload — stepping to
	// cheaper low-nprobe/low-fanout entries when the load demands it —
	// but never onto an entry whose measured recall is below the floor.
	// 0 (the default) disables the floor; entries with unmeasured recall
	// always pass, so cache-less capacity-only libraries are unaffected.
	MinRecall float64 `json:"min_recall,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 30
	}
	if c.Interval == 0 {
		c.Interval = 10
	}
	if c.Headroom == 0 {
		c.Headroom = 1.25
	}
	if c.HoldDown == 0 {
		c.HoldDown = 3 * c.Interval
	}
	if c.MinSamples == 0 {
		c.MinSamples = 20
	}
	return c
}

func (c Config) validate() error {
	if c.Window < 0 || c.Interval < 0 || c.Headroom < 0 || c.HoldDown < 0 || c.MinSamples < 0 || c.CacheGain < 0 {
		return fmt.Errorf("control: negative Config fields")
	}
	if c.MinRecall < 0 || c.MinRecall > 1 {
		return fmt.Errorf("control: MinRecall must be in [0, 1], got %g", c.MinRecall)
	}
	if c.Headroom != 0 && c.Headroom < 1 {
		return fmt.Errorf("control: Headroom must be >= 1 (capacity margin over observed load), got %g", c.Headroom)
	}
	return nil
}

// Event is one plan switch the controller made.
type Event struct {
	// AtV is the virtual time the switch took effect, the tick instant
	// that decided it and the StartV of the epoch it started: every later
	// arrival went to To. SimReplay starts its tenures there. From/To index
	// Library.Entries.
	AtV  float64 `json:"at_v"`
	From int     `json:"from"`
	To   int     `json:"to"`
	// Reason is "load" (rate-driven resize) or "slo" (reactive upshift
	// on a windowed p99 violation).
	Reason string `json:"reason"`
	// Rate and P99TTFT are the telemetry the decision saw.
	Rate    float64 `json:"rate"`
	P99TTFT float64 `json:"p99_ttft"`
	// DrainSeconds is how long the retired plan's in-flight requests took
	// to finish on its outgoing workers (the double-provisioned overlap
	// the chip-second accounting charges). Filled in after the run drains.
	DrainSeconds float64 `json:"drain_seconds"`
}

// Result is the outcome of one controlled replay.
type Result struct {
	// Report is the live runtime's measured report, switching history
	// included.
	Report *serve.ServerReport `json:"report"`
	// Events are the switches, in order; Ticks the control decisions
	// taken; Start the initial library entry.
	Events []Event `json:"events,omitempty"`
	Ticks  int     `json:"ticks"`
	Start  int     `json:"start"`
	// MaxEntry is the most capable entry ever active — what static peak
	// provisioning would have had to run for the whole trace.
	MaxEntry int `json:"max_entry"`
	// ChipSeconds is the controller's integrated cost;
	// StaticChipSeconds the peak plan held for the full duration; Saved
	// the relative reduction.
	ChipSeconds       float64 `json:"chip_seconds"`
	StaticChipSeconds float64 `json:"static_chip_seconds"`
	Saved             float64 `json:"saved"`
	// SLO echoes the enforced objective.
	SLO SLO `json:"slo"`
}

// Controller drives a serve.Server through a plan library to track a
// time-varying load.
type Controller struct {
	Lib *Library
	Cfg Config
}

// NewController validates the pieces and applies Config defaults.
func NewController(lib *Library, cfg Config) (*Controller, error) {
	if lib == nil || len(lib.Entries) == 0 {
		return nil, fmt.Errorf("control: empty plan library")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Controller{Lib: lib, Cfg: cfg.withDefaults()}, nil
}

// decide picks the target library entry given the current one and a
// telemetry window.
func (c *Controller) decide(cur int, w serve.Window) (want int, reason string) {
	target := w.ArrivalRate * c.Cfg.Headroom
	if c.Cfg.CacheGain > 0 && w.CacheHitRate > 0 {
		// Cache-aware capacity weighting: hot reuse traffic needs less
		// staircase capacity per arrival than the cache-blind analytic
		// assumes (hits prefill only their uncached suffix).
		target /= 1 + c.Cfg.CacheGain*w.CacheHitRate
	}
	want, reason = c.Lib.IndexForFloor(target, c.Cfg.MinRecall), "load"
	// above reports whether a trusted windowed p99 TTFT or TPOT exceeds
	// frac of its objective.
	slo := c.Cfg.SLO
	above := func(frac float64) bool {
		return w.Completions >= c.Cfg.MinSamples &&
			(slo.TTFT > 0 && w.TTFT.P99 > frac*slo.TTFT || slo.TPOT > 0 && w.TPOT.P99 > frac*slo.TPOT)
	}
	// Reactive upshift: a windowed p99 violation means the rate estimate is
	// lying (queues are building faster than completions report), so take
	// at least one step up regardless.
	if above(1) && want <= cur && cur+1 < len(c.Lib.Entries) {
		want, reason = cur+1, "slo"
	}
	// Never scale down while either latency is anywhere near its
	// objective — the hysteresis that keeps a just-upshifted run from
	// flapping straight back down.
	if above(0.7) && want < cur {
		want = cur
	}
	return want, reason
}

// Run replays the trace through a fresh multi-plan Server, starting on
// the cheapest plan able to carry the trace's opening window (so a trace
// that begins at crest load is not admitted onto the trough plan),
// deciding at each k*Interval virtual seconds in the run's own loop
// (serve.Server.At, so the same at any speedup) and switching plans to
// hold the SLO at minimum chip cost. It blocks until the replay drains.
func (c *Controller) Run(opts serve.Options, reqs []trace.Request) (*Result, error) {
	start := c.startEntry(reqs)
	srv, err := serve.NewServer(c.Lib.Entries[start].Plan, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Start: start, MaxEntry: start, SLO: c.Cfg.SLO}
	cur, lastSwitch, lastReweight := start, 0.0, 0.0
	var tickErr error
	var tick func()
	tick = func() {
		res.Ticks++
		w := srv.Telemetry(c.Cfg.Window)
		// Online staircase re-pricing: the library's shape weighting was
		// priced once at startup, and a trace whose shape mix drifts
		// (long-prompt afternoon after a short-prompt morning) leaves
		// every QPS estimate stale — the controller then tracks load
		// against capacities no plan delivers. Re-weight from the live
		// window's bucket mix, hold-down gated so a noisy window cannot
		// thrash the pricing, and in place (Reweight, not WeightByShapes)
		// so cur and the recorded events keep indexing the same plans.
		if w.Completions >= c.Cfg.MinSamples && w.Now-lastReweight >= c.Cfg.HoldDown {
			if shapes := shapesFromWindow(w.Shapes); len(shapes) > 0 {
				c.Lib.Reweight(shapes)
				lastReweight = w.Now
			}
		}
		want, reason := c.decide(cur, w)
		if opts.Bus.Active() {
			opts.Bus.Publish(obs.Event{Kind: obs.KindDecision, T: w.Now,
				N: res.Ticks, Track: "controller", Payload: obs.DecisionInfo{
					Cur: cur, Want: want, Reason: reason,
					Rate: w.ArrivalRate, P99TTFT: w.TTFT.P99,
					QPS: w.QPS, InFlight: w.InFlight,
				}})
		}
		if want > cur || (want < cur && w.Now-lastSwitch >= c.Cfg.HoldDown) {
			if err := srv.Switch(c.Lib.Entries[want].Plan); err != nil {
				tickErr = fmt.Errorf("control: switch at tick %d: %w", res.Ticks, err)
				return
			}
			res.Events = append(res.Events, Event{
				AtV: w.Now, From: cur, To: want, Reason: reason,
				Rate: w.ArrivalRate, P99TTFT: w.TTFT.P99,
			})
			cur, lastSwitch = want, w.Now
			res.MaxEntry = max(res.MaxEntry, want)
		}
		srv.At(float64(res.Ticks+1)*c.Cfg.Interval, tick)
	}
	srv.At(c.Cfg.Interval, tick)
	rep, err := srv.Serve(reqs)
	if err = errors.Join(err, tickErr); err != nil {
		return nil, err
	}
	res.Report = rep
	c.account(res, rep)
	return res, nil
}

// shapesFromWindow turns a telemetry window's shape-bucket mix into a
// weighted shape sample for library re-pricing: each bucket contributes
// its mean observed shape, replicated in proportion to its share of the
// window's completions (ceil, out of 64, so rare buckets still appear).
// Buckets without token means (a window predating shape telemetry)
// contribute nothing; an all-empty result tells the caller to skip.
func shapesFromWindow(stats []serve.ShapeStat) []engine.Shape {
	total := 0
	for _, s := range stats {
		total += s.Count
	}
	if total == 0 {
		return nil
	}
	var shapes []engine.Shape
	for _, s := range stats {
		if s.MeanPromptTokens <= 0 || s.MeanOutputTokens <= 0 {
			continue
		}
		n := (64*s.Count + total - 1) / total
		for i := 0; i < n; i++ {
			shapes = append(shapes, engine.Shape{
				PromptTokens: s.MeanPromptTokens,
				OutputTokens: s.MeanOutputTokens,
			})
		}
	}
	return shapes
}

// startEntry sizes the initial plan from the trace's opening window: the
// arrival rate over the first Window virtual seconds, with the same
// headroom the steady-state decisions use.
func (c *Controller) startEntry(reqs []trace.Request) int {
	if len(reqs) == 0 || c.Cfg.Window <= 0 {
		return 0
	}
	early := 0
	for _, r := range reqs {
		if r.Arrival <= c.Cfg.Window {
			early++
		}
	}
	return c.Lib.IndexFor(float64(early) / c.Cfg.Window * c.Cfg.Headroom)
}

// account fills in the cost comparison once the run has drained, and
// back-fills each switch event with its retired epoch's measured drain time
// (switch i retires epoch i — epochs and events are both in switch order,
// with epochs carrying one extra leading entry for the start plan).
func (c *Controller) account(res *Result, rep *serve.ServerReport) {
	res.ChipSeconds = rep.ChipSeconds
	res.StaticChipSeconds = float64(c.Lib.Entries[res.MaxEntry].Chips) * rep.DurationV
	if res.StaticChipSeconds > 0 {
		res.Saved = 1 - res.ChipSeconds/res.StaticChipSeconds
	}
	for i := range res.Events {
		old := rep.Epochs[i]
		res.Events[i].DrainSeconds = max(old.DrainedV-old.RetiredV, 0)
	}
}

// String renders the controlled run for the CLI.
func (r *Result) String() string {
	out := r.Report.String()
	out += fmt.Sprintf("controller: %d ticks, %d switches, chip-seconds %.0f vs %.0f static peak (%.1f%% saved)\n",
		r.Ticks, len(r.Events), r.ChipSeconds, r.StaticChipSeconds, 100*r.Saved)
	for _, e := range r.Events {
		out += fmt.Sprintf("  t=%8.1fs  %d -> %d  (%s: rate %.1f/s, p99 TTFT %.3fs, drain %.1fs)\n",
			e.AtV, e.From, e.To, e.Reason, e.Rate, e.P99TTFT, e.DrainSeconds)
	}
	return out
}
