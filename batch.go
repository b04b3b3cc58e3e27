package conflictres

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"conflictres/internal/constraint"
	"conflictres/internal/core"
	"conflictres/internal/encode"
	"conflictres/internal/model"
)

// RuleSet is a compiled constraint set (Σ, Γ) over one schema. Compiling
// parses and validates every constraint text exactly once; the result is
// immutable and safe to share across goroutines, so a server resolving a
// stream of entities with one schema pays the parsing cost once, not per
// entity.
type RuleSet struct {
	schema *Schema
	sigma  []constraint.Currency
	gamma  []constraint.CFD
	// trust is the compiled trust mapping of the rules file's trust: section;
	// nil means uniform trust.
	trust *constraint.TrustTable

	// The original texts, kept for serialization and cache keys.
	currencyTexts []string
	cfdTexts      []string

	// pool holds resolve pipelines (compiled encoding skeleton + arena
	// solver) checked out by workers resolving entities under this rule
	// set; see RuleSet.Resolve.
	pool sync.Pool
}

// Module-wide pooled-pipeline counters, across all rule sets; the crserve
// /metrics endpoint exposes them as crserve_pool_*_total.
var (
	poolHits             atomic.Int64
	poolMisses           atomic.Int64
	poolSkeletonRebuilds atomic.Int64
)

// PoolStats reports the cumulative pooled-pipeline counters of the process:
// how many pipeline checkouts were served from a pool (Hits) vs freshly
// constructed (Misses), and how many encodings the pooled pipelines had to
// build from zero instead of reusing the skeleton's retained storage
// (SkeletonRebuilds — the first build of each fresh pipeline plus any
// rebuild forced by a non-monotone Se ⊕ Ot step or a foreign spec).
type PoolStats struct {
	Hits             int64
	Misses           int64
	SkeletonRebuilds int64
}

// PoolCounters returns the current module-wide pool counters.
func PoolCounters() PoolStats {
	return PoolStats{
		Hits:             poolHits.Load(),
		Misses:           poolMisses.Load(),
		SkeletonRebuilds: poolSkeletonRebuilds.Load(),
	}
}

// pipeline wraps a core pipeline with the rebuild count already reported to
// the module-wide counters.
type pipeline struct {
	p        *core.Pipeline
	reported int
}

// acquirePipeline checks a pipeline out of the rule set's pool, building one
// on a miss. Callers must return it with releasePipeline and must not use it
// from two goroutines.
func (rs *RuleSet) acquirePipeline() *pipeline {
	if v := rs.pool.Get(); v != nil {
		poolHits.Add(1)
		return v.(*pipeline)
	}
	poolMisses.Add(1)
	return &pipeline{p: core.NewPipeline(rs.sigma, rs.gamma, encode.Options{})}
}

// releasePipeline accounts the pipeline's skeleton rebuilds and returns it
// to the pool.
func (rs *RuleSet) releasePipeline(pl *pipeline) {
	builds, reuses := pl.p.SkeletonStats()
	if d := builds - reuses - pl.reported; d > 0 {
		poolSkeletonRebuilds.Add(int64(d))
		pl.reported = builds - reuses
	}
	rs.pool.Put(pl)
}

// Resolve resolves a specification bound to this rule set through a pooled
// per-worker pipeline: the entity-independent encoding skeleton and the
// arena-backed SAT solver are reused across calls instead of being rebuilt
// per entity. Results are identical to the package-level Resolve (the
// differential tests pin this); the unpooled and from-scratch reference
// options fall back to it.
func (rs *RuleSet) Resolve(spec *Spec, oracle Oracle, opts ...Options) (*Result, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.unpooled || o.fromScratch {
		return Resolve(spec, oracle, o)
	}
	pl := rs.acquirePipeline()
	defer rs.releasePipeline(pl)
	return resolveWith(spec, oracle, o, pl.p)
}

// CompileRules parses the currency constraints and constant CFDs against the
// schema and returns a reusable rule set. The text syntax is that of NewSpec.
func CompileRules(schema *Schema, currency []string, cfds []string) (*RuleSet, error) {
	return CompileRulesTrust(schema, currency, cfds, nil)
}

// CompileRulesTrust is CompileRules plus a trust mapping: the statements (the
// rules-file trust: syntax) are compiled into the rule set, so every entity
// bound to it resolves under those source weights.
func CompileRulesTrust(schema *Schema, currency []string, cfds []string, trust []string) (*RuleSet, error) {
	if schema == nil {
		return nil, fmt.Errorf("conflictres: CompileRules needs a schema")
	}
	tt, err := constraint.CompileTrust(trust)
	if err != nil {
		return nil, err
	}
	rs := &RuleSet{
		schema:        schema,
		trust:         tt,
		currencyTexts: append([]string(nil), currency...),
		cfdTexts:      append([]string(nil), cfds...),
	}
	for _, s := range currency {
		c, err := constraint.ParseCurrency(schema, s)
		if err != nil {
			return nil, err
		}
		rs.sigma = append(rs.sigma, c)
	}
	for _, s := range cfds {
		c, err := constraint.ParseCFD(schema, s)
		if err != nil {
			return nil, err
		}
		rs.gamma = append(rs.gamma, c)
	}
	return rs, nil
}

// Schema returns the schema the rules were compiled against.
func (rs *RuleSet) Schema() *Schema { return rs.schema }

// CurrencyTexts returns the currency-constraint texts the set was compiled
// from, in input order.
func (rs *RuleSet) CurrencyTexts() []string {
	return append([]string(nil), rs.currencyTexts...)
}

// CFDTexts returns the CFD texts the set was compiled from, in input order.
func (rs *RuleSet) CFDTexts() []string { return append([]string(nil), rs.cfdTexts...) }

// TrustTexts returns the trust-mapping statement texts the set was compiled
// from, in input order; nil when the set carries no trust mapping.
func (rs *RuleSet) TrustTexts() []string { return rs.trust.Texts() }

// compatible reports whether an instance's schema matches the compiled one.
// Attributes are positional throughout the module, so the names must agree
// in order, not just as a set.
func (rs *RuleSet) compatible(sch *Schema) bool {
	if sch == rs.schema {
		return true
	}
	if sch.Len() != rs.schema.Len() {
		return false
	}
	for _, a := range rs.schema.Attrs() {
		if sch.Name(a) != rs.schema.Name(a) {
			return false
		}
	}
	return true
}

// NewSpecFromRules binds an entity instance to a compiled rule set without
// re-parsing any constraint text. The instance's schema must list the same
// attribute names in the same order as the rule set's.
func NewSpecFromRules(in *Instance, rules *RuleSet) (*Spec, error) {
	if in == nil || rules == nil {
		return nil, fmt.Errorf("conflictres: NewSpecFromRules needs an instance and a rule set")
	}
	if !rules.compatible(in.Schema()) {
		return nil, fmt.Errorf("conflictres: instance schema %s does not match rule set schema %s",
			in.Schema(), rules.schema)
	}
	// Constraints are immutable values; sharing the slices across specs is
	// safe (model.Spec.Clone shares them the same way).
	m := model.NewSpec(model.NewTemporal(in), rules.sigma, rules.gamma)
	m.Trust = rules.trust
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Spec{m: m}, nil
}

// BatchOptions tunes ResolveBatch.
type BatchOptions struct {
	// Workers bounds the worker pool; 0 or negative means GOMAXPROCS.
	Workers int
	// Options applies to every entity's Resolve call.
	Options Options
}

func (o BatchOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// BatchResult aggregates a batch resolution. Results and Errs are parallel
// to the input slice: exactly one of Results[i], Errs[i] is non-nil.
type BatchResult struct {
	Results []*Result
	Errs    []error
	// Resolved counts entities that produced a Result (Valid or not).
	Resolved int
	// Failed counts entities whose resolution returned an error.
	Failed int
	// Timing sums the per-phase time across all entities; with W workers it
	// exceeds Wall by up to a factor of W.
	Timing Timing
	// Wall is the end-to-end elapsed time of the batch.
	Wall time.Duration
}

// ResolveBatch resolves a batch of entity instances against one compiled
// rule set, fanning the entities out over a bounded worker pool. Resolution
// is non-interactive (nil oracle): the batch path is meant for unattended
// bulk and server workloads.
//
// Each worker checks one resolve pipeline out of the rule set's pool and
// serves all its entities from it — the encoding skeleton and solver are
// built once per worker, not per entity. The unpooled reference option
// restores the per-entity construction for ablation benchmarks and
// differential tests.
func ResolveBatch(rules *RuleSet, instances []*Instance, opts BatchOptions) (*BatchResult, error) {
	if rules == nil {
		return nil, fmt.Errorf("conflictres: ResolveBatch needs a rule set")
	}
	specs := make([]*Spec, len(instances))
	errs := make([]error, len(instances))
	for i, in := range instances {
		s, err := NewSpecFromRules(in, rules)
		if err != nil {
			errs[i] = err
			continue
		}
		specs[i] = s
	}
	br := resolveSpecs(specs, opts, rules)
	// Merge binding errors over the (nil) results of unbound slots.
	for i, err := range errs {
		if err != nil {
			br.Errs[i] = err
			br.Failed++
		}
	}
	return br, nil
}

// ResolveSpecs resolves already-bound specifications over a bounded worker
// pool; nil slots yield nil Result and nil error (callers account for them).
// It is the engine under ResolveBatch. Without a rule set in hand it cannot
// pool pipelines; prefer ResolveBatch for pooled throughput. (The HTTP batch
// endpoint streams results as they complete, so it runs its own pool over
// the same per-entity path instead.)
func ResolveSpecs(specs []*Spec, opts BatchOptions) *BatchResult {
	return resolveSpecs(specs, opts, nil)
}

// resolveSpecs is the shared batch engine; a non-nil rules enables pooled
// per-worker pipelines (unless the options opt out).
func resolveSpecs(specs []*Spec, opts BatchOptions, rules *RuleSet) *BatchResult {
	start := time.Now()
	br := &BatchResult{
		Results: make([]*Result, len(specs)),
		Errs:    make([]error, len(specs)),
	}
	workers := opts.workers()
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}
	pooled := rules != nil && !opts.Options.unpooled && !opts.Options.fromScratch

	var mu sync.Mutex // guards the aggregate counters
	var wg sync.WaitGroup
	// Workers claim the next index themselves: an entity costs tens of
	// microseconds, so a per-entity channel handoff would leave them idle.
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pipe *core.Pipeline
			if pooled {
				pl := rules.acquirePipeline()
				defer rules.releasePipeline(pl)
				pipe = pl.p
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				if specs[i] == nil {
					continue
				}
				res, err := resolveWith(specs[i], nil, opts.Options, pipe)
				mu.Lock()
				if err != nil {
					br.Errs[i] = err
					br.Failed++
				} else {
					br.Results[i] = res
					br.Resolved++
					br.Timing.Validity += res.Timing.Validity
					br.Timing.Deduce += res.Timing.Deduce
					br.Timing.Suggest += res.Timing.Suggest
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	br.Wall = time.Since(start)
	return br
}
