package conflictres

import (
	"context"
	"fmt"
	"io"
	"os"

	"conflictres/internal/dataset"
	"conflictres/internal/relation"
	"conflictres/internal/textio"
)

// DatasetStats summarizes one dataset resolution run: rows read, entity
// outcomes, window flushes, aggregate solver timing and wall time.
type DatasetStats = dataset.Stats

// DatasetOptions tunes ResolveDataset.
type DatasetOptions struct {
	// KeyColumns name the input columns whose values identify an entity;
	// rows sharing a key are grouped into one entity instance. Required.
	// Key columns may themselves be schema attributes.
	KeyColumns []string
	// InputFormat is "csv" (default) or "ndjson". CSV input carries a
	// header line naming the columns; NDJSON input is one JSON object per
	// line mapping column names to null/string/number values.
	InputFormat string
	// OutputFormat is "csv" or "ndjson"; empty mirrors the input format.
	OutputFormat string
	// Shards is the resolution worker-pool width (0 = GOMAXPROCS).
	// Entities are sharded by key hash.
	Shards int
	// WindowRows bounds the rows buffered while grouping (default 65536):
	// when reached, pending groups are dispatched, except the one that
	// received the most recent row — it is carried across the flush so a
	// contiguous run of one key never splits. Only entities whose rows are
	// interleaved far enough apart to span a flush resolve once per chunk;
	// they are counted in DatasetStats.SplitEntities.
	WindowRows int
	// Sorted declares the input clustered by entity key, letting the
	// grouper flush each entity at its last row; memory then stays at one
	// in-flight entity per shard regardless of WindowRows.
	Sorted bool
	// MaxRounds bounds resolution rounds per entity (see Options).
	MaxRounds int
	// MaxEntityRows rejects entities larger than this many rows within a
	// window (default 10000; negative disables).
	MaxEntityRows int
	// Mode selects the resolution strategy and trust overlay applied to
	// every entity (see ResolutionMode).
	Mode ResolutionMode
	// unpooled disables the pooled resolve pipelines (encoding skeleton +
	// solver reused across entities): the package tests' differential
	// reference and ablation baseline. Identical results either way.
	unpooled bool
}

func (o DatasetOptions) formats() (in, out string, err error) {
	in = o.InputFormat
	if in == "" {
		in = "csv"
	}
	if in != "csv" && in != "ndjson" {
		return "", "", fmt.Errorf("conflictres: unknown input format %q (want csv or ndjson)", o.InputFormat)
	}
	out = o.OutputFormat
	if out == "" {
		out = in
	}
	if out != "csv" && out != "ndjson" {
		return "", "", fmt.Errorf("conflictres: unknown output format %q (want csv or ndjson)", o.OutputFormat)
	}
	return in, out, nil
}

// ResolveDataset resolves a whole relation in one streaming pass: rows are
// read from in, grouped by the configured key columns, resolved against the
// compiled rule set over a sharded worker pool, and written to out as one
// line per entity (key, validity, grouped row count, resolved tuple).
// Results appear in completion order, so output order is nondeterministic
// across keys; correlate by key. Memory use is bounded by WindowRows plus
// the in-flight entities, not by the input size.
//
// Per-entity failures (binding errors, oversized groups) are reported in
// the output and counted in the returned stats; only input, output and
// context errors abort the run. The returned stats are valid even on error.
func ResolveDataset(ctx context.Context, rules *RuleSet, in io.Reader, out io.Writer, opts DatasetOptions) (*DatasetStats, error) {
	if rules == nil {
		return nil, fmt.Errorf("conflictres: ResolveDataset needs a rule set")
	}
	inFmt, outFmt, err := opts.formats()
	if err != nil {
		return nil, err
	}
	sch := rules.Schema()

	var reader dataset.RowReader
	switch inFmt {
	case "csv":
		reader, err = dataset.NewCSVReader(in, sch, opts.KeyColumns)
	case "ndjson":
		reader, err = dataset.NewNDJSONReader(in, sch, opts.KeyColumns)
	}
	if err != nil {
		return nil, err
	}

	var writer dataset.Writer
	switch outFmt {
	case "csv":
		keyName := "key"
		if len(opts.KeyColumns) == 1 {
			keyName = opts.KeyColumns[0]
		}
		writer, err = dataset.NewCSVWriter(out, sch, keyName)
		if err != nil {
			return nil, err
		}
	case "ndjson":
		writer = dataset.NewNDJSONWriter(out, sch)
	}

	return dataset.Run(ctx, sch, reader, datasetResolver(rules, opts), writer, dataset.Options{
		Shards:        opts.Shards,
		WindowRows:    opts.WindowRows,
		Sorted:        opts.Sorted,
		MaxEntityRows: opts.MaxEntityRows,
	})
}

// datasetResolver adapts a compiled rule set to the dataset engine's
// resolver contract: bind the grouped instance without re-parsing, resolve
// non-interactively through the rule set's pipeline pool — each shard
// effectively keeps one skeleton + solver warm across its entities. (The
// HTTP server builds its own resolver so it can consult its result cache
// around the same binding path.)
func datasetResolver(rules *RuleSet, opts DatasetOptions) dataset.Resolver {
	ropts := Options{MaxRounds: opts.MaxRounds, unpooled: opts.unpooled, Mode: opts.Mode}
	return func(key string, in *relation.Instance) dataset.Outcome {
		spec, err := NewSpecFromRules(in, rules)
		if err != nil {
			return dataset.Outcome{Err: err}
		}
		res, err := rules.Resolve(spec, nil, ropts)
		if err != nil {
			return dataset.Outcome{Err: err}
		}
		return dataset.Outcome{
			Valid:    res.Valid,
			Tuple:    res.Tuple,
			Resolved: res.Resolved,
			Timing:   res.Timing,
		}
	}
}

// LoadRules reads a rules file — the textio format restricted to schema,
// sigma and gamma sections (a full specification file also works; its data
// is ignored) — into a compiled rule set. The reader already parsed and
// validated every constraint (with line-numbered errors), so the rule set
// is assembled directly: each text is parsed exactly once.
func LoadRules(r io.Reader) (*RuleSet, error) {
	parsed, err := textio.ReadRules(r)
	if err != nil {
		return nil, err
	}
	return &RuleSet{
		schema:        parsed.Schema,
		sigma:         parsed.Sigma,
		gamma:         parsed.Gamma,
		trust:         parsed.TrustTable,
		currencyTexts: parsed.Currency,
		cfdTexts:      parsed.CFDs,
	}, nil
}

// LoadRulesFile reads and compiles a rules file from disk.
func LoadRulesFile(path string) (*RuleSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("conflictres: %w", err)
	}
	defer f.Close()
	return LoadRules(f)
}
