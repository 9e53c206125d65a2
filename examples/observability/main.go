// Observability example: attach the event bus to a serving replay, stream
// live telemetry over HTTP while it runs, and export the per-request span
// timeline as a Chrome trace_event file you can open in Perfetto.
//
// Three consumers ride one bus without touching the dataplane's fast
// path:
//
//   - a MetricsServer exposing /window (JSON snapshot), /stream (SSE),
//     expvar counters, and pprof on a local port;
//   - a Tracer assembling every admit → stage → decode → finish event
//     into per-request spans, written to observability_trace.json
//     (load it at https://ui.perfetto.dev);
//   - a plain subscriber counting events, to show the raw feed.
//
// Run with `go run ./examples/observability`.
package main

import (
	"fmt"
	"log"
	"net/http"
	"os"

	"rago"
)

func main() {
	log.SetFlags(0)

	// 1. A Case I workload on a throughput-optimal schedule.
	schema := rago.CaseI(8e9, 1)
	cluster := rago.DefaultCluster()
	front, err := rago.Optimize(schema, rago.DefaultOptions(cluster))
	if err != nil {
		log.Fatal(err)
	}
	best, ok := rago.MaxQPSPerChip(front)
	if !ok {
		log.Fatal("empty frontier")
	}

	// 2. One bus, three consumers.
	bus := rago.NewBus()

	tracer := rago.NewTracer()
	if err := tracer.Attach(bus, 0); err != nil {
		log.Fatal(err)
	}

	msrv, err := rago.NewMetricsServer(bus, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer msrv.Close()
	fmt.Printf("metrics:   http://%s  (/window /stream /debug/vars /debug/pprof/)\n", msrv.Addr())

	counter := bus.Subscribe(1 << 15)

	// 3. Replay 2000 Poisson arrivals at 1.5x analytical capacity with a
	// telemetry window streamed every 2 virtual seconds.
	const n = 2000
	reqs, err := rago.PoissonTrace(n, 1.5*best.Metrics.QPS, 42)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := rago.CompilePlan(schema, best.Item, cluster)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := rago.NewServer(plan, rago.ServeOptions{
		Speedup:     (n / best.Metrics.QPS) / 4.0, // ~4s of wall time
		WindowEvery: 2,
		Bus:         bus,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Peek at the live stream the way an external autoscaler would.
	go func() {
		resp, err := http.Get("http://" + msrv.Addr() + "/stream")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		for {
			k, err := resp.Body.Read(buf)
			if k > 0 {
				os.Stdout.Write(buf[:k])
			}
			if err != nil {
				return
			}
		}
	}()

	rep, err := srv.Serve(reqs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n\n", &rep.Report)

	// 4. Drain the consumers: raw feed stats, then the span export.
	counter.Close()
	events := 0
	for range counter.Events() {
		events++
	}
	fmt.Printf("raw feed:  %d events delivered, %d dropped (bounded buffer)\n", events, counter.Dropped())

	tracer.Close()
	spans := tracer.Requests()
	fmt.Printf("tracer:    %d requests assembled, first done at %.2fs, last at %.2fs\n",
		len(spans), spans[0].Done, spans[len(spans)-1].Done)

	raw, err := tracer.ChromeTrace()
	if err != nil {
		log.Fatal(err)
	}
	const out = "observability_trace.json"
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace:     wrote %s (%d bytes) — open in https://ui.perfetto.dev\n", out, len(raw))
}
