// Serving benchmarks: end-to-end loopback HTTP load against the streaming
// monitor service, contrasting the NDJSON stream transport with one POST
// per sample at the same session count. Verdict streams are bit-identical
// across arms (serve.TestServeDeterminism), so the comparison is pure
// throughput/latency. BenchmarkServe/* is gated in CI against
// BENCH_BASELINE.json.
package repro_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// benchServe measures one full load run (sessions × samples, loopback HTTP)
// per iteration and reports per-sample verdict latency percentiles and
// sustained scored-sample throughput.
func benchServe(b *testing.B, sessions int, mode string) {
	b.Helper()
	a := assets(b)
	m, err := a.Sims[dataset.Glucosym].MLMonitor("mlp")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Monitor: m, IdleTimeout: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cfg := serve.LoadConfig{
		BaseURL:           ts.URL,
		Sessions:          sessions,
		SamplesPerSession: 64,
		Mode:              mode,
		Seed:              7,
	}
	var last *serve.LoadResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := serve.RunLoad(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(last.P50.Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(last.P99.Nanoseconds()), "p99-ns")
	b.ReportMetric(last.SamplesPerSec, "samples/s")
}

// BenchmarkServe drives the one serving path at 64 concurrent patient
// sessions over both transports: stream64 (NDJSON ingest, chunked into
// scoring blocks as lines arrive) and request64 (one HTTP POST per sample).
func BenchmarkServe(b *testing.B) {
	b.Run("stream64", func(b *testing.B) { benchServe(b, 64, "stream") })
	b.Run("request64", func(b *testing.B) { benchServe(b, 64, "request") })
}
