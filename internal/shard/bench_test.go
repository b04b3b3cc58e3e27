package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"conflictres/internal/datagen"
	"conflictres/internal/server"
)

// newUncachedBackendURL starts a crserve backend with the result cache off,
// so every benchmark iteration pays real resolution instead of a cache hit.
func newUncachedBackendURL(b *testing.B) string {
	b.Helper()
	s := server.New(server.Config{CacheSize: -1})
	b.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return ts.URL
}

// benchBatch posts body to url's /v1/resolve/batch b.N times, requiring
// entities result lines per response, and reports entities/s plus the
// process-wide allocations and bytes per entity (client, coordinator and
// backends all run in this process).
func benchBatch(b *testing.B, url string, body []byte, entities int) {
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	var before, after runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url+"/v1/resolve/batch", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		got := 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if len(sc.Bytes()) > 0 {
				got++
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		if got != entities {
			b.Fatalf("%d results, want %d", got, entities)
		}
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	n := float64(entities) * float64(b.N)
	b.ReportMetric(n/b.Elapsed().Seconds(), "entities/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/entity")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/entity")
}

// BenchmarkShardedBatch measures batch resolution throughput through the
// crshard coordinator over two local crserve backends, against the same
// stream on one directly-addressed backend. The fleet pays an extra HTTP
// hop, chunking, and merge per entity; the benchmark tracks how much of the
// fan-out win that overhead eats at this (small, in-process) scale.
func BenchmarkShardedBatch(b *testing.B) {
	const entities = 64
	body := edithBatchBody(b, entities)
	b.Run("single", func(b *testing.B) {
		benchBatch(b, newUncachedBackendURL(b), body, entities)
	})
	b.Run("fleet=2", func(b *testing.B) {
		_, curl := newShard(b, []string{newUncachedBackendURL(b), newUncachedBackendURL(b)}, func(cfg *Config) {
			cfg.ChunkEntities = 16
		})
		benchBatch(b, curl, body, entities)
	})
}

// bulkMixBody renders the fleet's bulk workload in miniature as one batch:
// the 128-entity Person mix of core's BenchmarkPipelineBulkMix (ACPool 24,
// 6×8 chains, Zipf(1.5) sizes over 2–40 tuples), every tuple tagged with one
// of 4 sources ranked by the header's trust chain.
func bulkMixBody(b *testing.B) ([]byte, int) {
	b.Helper()
	ds := datagen.Person(datagen.PersonConfig{
		Entities: 128, MinTuples: 2, MaxTuples: 40, Seed: 7,
		Skew:   datagen.SkewZipf,
		ACPool: 24, StatusChains: 6, StatusChainLen: 8,
		JobChains: 6, JobChainLen: 8,
	})
	ds.AssignSources(4, 7)
	hdr := map[string]any{"schema": ds.Schema.Names(), "trust": ds.Trust}
	var currency, cfds []string
	for _, c := range ds.Sigma {
		currency = append(currency, c.Format(ds.Schema))
	}
	for _, c := range ds.Gamma {
		cfds = append(cfds, c.Format(ds.Schema))
	}
	hdr["currency"], hdr["cfds"] = currency, cfds
	var buf bytes.Buffer
	buf.Write(marshalLine(b, hdr))
	buf.WriteByte('\n')
	for _, e := range ds.Entities {
		in := e.Spec.TI.Inst
		var tuples [][]any
		var sources []string
		for _, id := range in.TupleIDs() {
			row := make([]any, 0, ds.Schema.Len())
			for _, v := range in.Tuple(id) {
				row = append(row, v.AsJSON())
			}
			tuples = append(tuples, row)
			sources = append(sources, in.Source(id))
		}
		line, err := json.Marshal(map[string]any{"id": e.ID, "tuples": tuples, "sources": sources})
		if err != nil {
			b.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), len(ds.Entities)
}

// BenchmarkShardedBulkMix runs the bulk mix through /v1/resolve/batch on
// one uncached backend and through a coordinator over two. Its
// allocs/entity is the deterministic anchor of the per-entity wire cost
// (decode, bind, cache key, encode, relay) on top of the engine's own
// allocations, which core's BenchmarkPipelineBulkMix pins.
func BenchmarkShardedBulkMix(b *testing.B) {
	body, entities := bulkMixBody(b)
	b.Run("single", func(b *testing.B) {
		benchBatch(b, newUncachedBackendURL(b), body, entities)
	})
	b.Run("fleet=2", func(b *testing.B) {
		_, curl := newShard(b, []string{newUncachedBackendURL(b), newUncachedBackendURL(b)}, nil)
		benchBatch(b, curl, body, entities)
	})
}
