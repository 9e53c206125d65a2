package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// MetricsServer is the streaming metrics endpoint: it subscribes to a Bus
// and serves
//
//   - /window        — the most recent telemetry window snapshot as JSON
//   - /stream        — an SSE stream of window, switch, and decision events
//   - /debug/vars    — expvar (cumulative "rago" counters + Go runtime)
//   - /debug/pprof/  — net/http/pprof
//
// so an external autoscaler, router, or a human with curl can subscribe
// to live serving telemetry instead of polling the process. The server
// owns its listener; Addr returns the bound address (useful with ":0").
type MetricsServer struct {
	bus *Bus
	sub *Sub
	ln  net.Listener
	srv *http.Server

	counters   *counters
	lastWindow atomic.Value // Event with Kind == KindWindow
	done       chan struct{}
	closeOnce  sync.Once
}

// counters are the expvar-published cumulative counts, fed from the event
// stream.
type counters struct {
	events, windows, admitted, rejected, completed atomic.Uint64
	switches, decisions                            atomic.Uint64
	bus                                            *Bus
	sub                                            *Sub
}

func (c *counters) snapshot() map[string]any {
	pub, drop := c.bus.Stats()
	return map[string]any{
		"events":        c.events.Load(),
		"windows":       c.windows.Load(),
		"admitted":      c.admitted.Load(),
		"rejected":      c.rejected.Load(),
		"completed":     c.completed.Load(),
		"switches":      c.switches.Load(),
		"decisions":     c.decisions.Load(),
		"bus_published": pub,
		"bus_dropped":   drop,
		"sub_dropped":   c.sub.Dropped(),
	}
}

// expvar's registry is global and panics on duplicate names, so the
// "rago" var is registered once per process and reads whichever
// MetricsServer is currently live.
var (
	expOnce    sync.Once
	expCurrent atomic.Pointer[counters]
)

func publishExpvar() {
	expOnce.Do(func() {
		expvar.Publish("rago", expvar.Func(func() any {
			if c := expCurrent.Load(); c != nil {
				return c.snapshot()
			}
			return map[string]any{}
		}))
	})
}

// NewMetricsServer subscribes to the bus and starts serving on addr
// (":0" picks a free port). Close releases the listener and the
// subscription.
func NewMetricsServer(bus *Bus, addr string) (*MetricsServer, error) {
	if bus == nil {
		return nil, fmt.Errorf("obs: MetricsServer needs a non-nil bus")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	m := &MetricsServer{
		bus:  bus,
		sub:  bus.Subscribe(4096),
		ln:   ln,
		done: make(chan struct{}),
	}
	m.counters = &counters{bus: bus, sub: m.sub}
	publishExpvar()
	expCurrent.Store(m.counters)

	mux := http.NewServeMux()
	mux.HandleFunc("/", m.index)
	mux.HandleFunc("/window", m.window)
	mux.HandleFunc("/stream", m.stream)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	m.srv = &http.Server{Handler: mux}
	go m.srv.Serve(ln)
	go m.consume()
	return m, nil
}

// Addr is the bound listen address (host:port).
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// Close stops serving and detaches from the bus. Idempotent.
func (m *MetricsServer) Close() error {
	var err error
	m.closeOnce.Do(func() {
		close(m.done)
		err = m.srv.Close()
		m.sub.Close()
	})
	return err
}

// consume drains the server's own subscription into the counters and the
// last-window snapshot. Exits when the subscription closes.
func (m *MetricsServer) consume() {
	for ev := range m.sub.Events() {
		c := m.counters
		c.events.Add(1)
		switch ev.Kind {
		case KindAdmit:
			c.admitted.Add(1)
		case KindReject:
			c.rejected.Add(1)
		case KindDecodeFinish:
			c.completed.Add(1)
		case KindWindow:
			c.windows.Add(1)
			m.lastWindow.Store(ev)
		case KindSwitchCommit:
			c.switches.Add(1)
		case KindDecision:
			c.decisions.Add(1)
		}
	}
}

func (m *MetricsServer) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "rago metrics\n\n/window\n/stream (SSE)\n/debug/vars\n/debug/pprof/\n")
}

// window serves the most recent streamed Window snapshot.
func (m *MetricsServer) window(w http.ResponseWriter, _ *http.Request) {
	ev, ok := m.lastWindow.Load().(Event)
	if !ok {
		http.Error(w, "no window snapshot streamed yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(ev)
}

// streamable selects the event kinds the SSE feed forwards: the windowed
// telemetry plus control-plane happenings — not the per-request firehose,
// which belongs on a Tracer.
func streamable(k Kind) bool {
	switch k {
	case KindWindow, KindSwitchBegin, KindSwitchCommit, KindSwitchDrain, KindDecision:
		return true
	}
	return false
}

// stream is the SSE feed: each forwarded event is one `event:`/`data:`
// frame named by its kind. Every client holds its own bounded bus
// subscription, so a stalled client drops its own events without
// affecting the dataplane or other clients.
func (m *MetricsServer) stream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	// Subscribe before flushing the response headers: once the client
	// sees the headers the feed is guaranteed live, so nothing published
	// after its request returns can fall in a subscription gap.
	sub := m.bus.Subscribe(512)
	defer sub.Close()
	// Snapshot the seed window before the headers go out, too: a window
	// the client publishes after seeing them reaches this feed through sub,
	// and must not also be replayed as the seed.
	seed, seeded := m.lastWindow.Load().(Event)
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	write := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	// Seed the stream with the last window so a new subscriber sees state
	// immediately instead of waiting out a window interval.
	if seeded && !write(seed) {
		return
	}
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			if !streamable(ev.Kind) {
				continue
			}
			if !write(ev) {
				return
			}
		case <-r.Context().Done():
			return
		case <-m.done:
			return
		}
	}
}
