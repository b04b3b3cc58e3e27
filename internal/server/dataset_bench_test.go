package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"conflictres/internal/datagen"
	"conflictres/internal/relation"
)

// bulkMixDataset renders the fleet's bulk workload as one sorted dataset
// body: the 128-entity Person mix of core's BenchmarkPipelineBulkMix (ACPool
// 24, 6×8 chains, Zipf(1.5) sizes over 2–40 tuples), one array row per
// tuple keyed by entity id, every row tagged with one of 4 sources ranked by
// the header's trust chain.
func bulkMixDataset(b *testing.B) ([]byte, int) {
	b.Helper()
	ds := datagen.Person(datagen.PersonConfig{
		Entities: 128, MinTuples: 2, MaxTuples: 40, Seed: 7,
		Skew:   datagen.SkewZipf,
		ACPool: 24, StatusChains: 6, StatusChainLen: 8,
		JobChains: 6, JobChainLen: 8,
	})
	ds.AssignSources(4, 7)
	columns := append(append([]string{"entity"}, ds.Schema.Names()...), relation.ReservedColumn)
	hdr := map[string]any{
		"schema": ds.Schema.Names(), "trust": ds.Trust,
		"key": []string{"entity"}, "columns": columns, "sorted": true,
	}
	var currency, cfds []string
	for _, c := range ds.Sigma {
		currency = append(currency, c.Format(ds.Schema))
	}
	for _, c := range ds.Gamma {
		cfds = append(cfds, c.Format(ds.Schema))
	}
	hdr["currency"], hdr["cfds"] = currency, cfds
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(hdr); err != nil {
		b.Fatal(err)
	}
	for _, e := range ds.Entities {
		in := e.Spec.TI.Inst
		for _, id := range in.TupleIDs() {
			row := []any{e.ID}
			for _, v := range in.Tuple(id) {
				row = append(row, v.AsJSON())
			}
			if err := enc.Encode(append(row, in.Source(id))); err != nil {
				b.Fatal(err)
			}
		}
	}
	return buf.Bytes(), len(ds.Entities)
}

// BenchmarkResolveDatasetHTTP runs the bulk mix through crserve's
// /v1/resolve/dataset with the result cache off, so every entity pays real
// resolution. Its allocs/entity is the deterministic anchor of the dataset
// path's per-entity wire cost (row decode, grouping, bind, cache key,
// encode) on top of the engine's own allocations; client and server run in
// this process.
func BenchmarkResolveDatasetHTTP(b *testing.B) {
	body, entities := bulkMixDataset(b)
	s := New(Config{CacheSize: -1})
	b.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)

	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	var before, after runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/resolve/dataset", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resolved := 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if bytes.HasPrefix(sc.Bytes(), []byte(`{"id":`)) && bytes.Contains(sc.Bytes(), []byte(`"valid":true`)) {
				resolved++
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		if resolved != entities {
			b.Fatalf("%d entities resolved, want %d", resolved, entities)
		}
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	n := float64(entities) * float64(b.N)
	b.ReportMetric(n/b.Elapsed().Seconds(), "entities/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/entity")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/entity")
}
