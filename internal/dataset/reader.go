package dataset

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"conflictres/internal/relation"
	"conflictres/internal/textio"
)

// keySep joins multi-column keys; a non-printing separator so composite
// keys cannot collide with literal cell contents.
const keySep = "\x1f"

// DisplayKey renders an entity key for user-facing output: composite keys
// read as comma-joined column values instead of leaking the internal
// separator. Single-column keys pass through unchanged.
func DisplayKey(key string) string {
	return strings.ReplaceAll(key, keySep, ",")
}

// columnPlan maps input columns onto the key and the resolution schema.
// Both readers share it: columns may appear in any order, key columns may
// double as schema attributes, and extra columns are ignored.
type columnPlan struct {
	sch     *relation.Schema
	keyIdx  []int // positions of the key columns in the input
	attrIdx []int // position of each schema attribute in the input
	srcIdx  int   // position of the reserved source= column, -1 when absent
	need    int   // minimum row width: 1 + the highest referenced position
}

func planColumns(sch *relation.Schema, columns, keyCols []string) (*columnPlan, error) {
	if len(keyCols) == 0 {
		return nil, fmt.Errorf("dataset: no key columns configured")
	}
	pos := make(map[string]int, len(columns))
	for i, c := range columns {
		c = strings.TrimSpace(c)
		if _, dup := pos[c]; dup {
			return nil, fmt.Errorf("dataset: duplicate input column %q", c)
		}
		pos[c] = i
	}
	p := &columnPlan{sch: sch, srcIdx: -1}
	if i, ok := pos[relation.ReservedColumn]; ok {
		p.srcIdx = i
	}
	for _, k := range keyCols {
		i, ok := pos[k]
		if !ok {
			return nil, fmt.Errorf("dataset: key column %q not in input header %v", k, columns)
		}
		p.keyIdx = append(p.keyIdx, i)
	}
	for _, name := range sch.Names() {
		i, ok := pos[name]
		if !ok {
			return nil, fmt.Errorf("dataset: schema attribute %q not in input header %v", name, columns)
		}
		p.attrIdx = append(p.attrIdx, i)
	}
	idxs := append(append([]int(nil), p.keyIdx...), p.attrIdx...)
	if p.srcIdx >= 0 {
		idxs = append(idxs, p.srcIdx)
	}
	for _, idx := range idxs {
		if idx+1 > p.need {
			p.need = idx + 1
		}
	}
	return p, nil
}

// source extracts the provenance tag from a record; cells use the textio
// cell syntax like every other column.
func (p *columnPlan) source(record []string) (string, error) {
	if p.srcIdx < 0 || p.srcIdx >= len(record) {
		return "", nil
	}
	cell := strings.TrimSpace(record[p.srcIdx])
	if cell == "" {
		return "", nil
	}
	v, err := textio.ParseCell(cell)
	if err != nil {
		return "", fmt.Errorf("%s column: %w", relation.ReservedColumn, err)
	}
	if v.IsNull() {
		return "", nil
	}
	return v.String(), nil
}

func (p *columnPlan) key(record []string) string {
	if len(p.keyIdx) == 1 {
		return record[p.keyIdx[0]]
	}
	parts := make([]string, len(p.keyIdx))
	for i, idx := range p.keyIdx {
		parts[i] = record[idx]
	}
	return strings.Join(parts, keySep)
}

// CSVReader reads dataset rows from CSV: a header line naming the columns,
// then one row per line. Cells use the textio cell syntax ("null", numbers,
// quoted strings); CRLF line endings and quoted separators/newlines are
// handled by the CSV layer. Ragged rows surface as *RowError with the
// offending line number.
type CSVReader struct {
	cr   *csv.Reader
	plan *columnPlan
}

// NewCSVReader reads the header from r and plans the column mapping.
func NewCSVReader(r io.Reader, sch *relation.Schema, keyCols []string) (*CSVReader, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("dataset: empty CSV input (missing header)")
		}
		return nil, fmt.Errorf("dataset: bad CSV header: %w", err)
	}
	plan, err := planColumns(sch, header, keyCols)
	if err != nil {
		return nil, err
	}
	return &CSVReader{cr: cr, plan: plan}, nil
}

// Read returns the next row or io.EOF.
func (r *CSVReader) Read() (Row, error) {
	rec, err := r.cr.Read()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Row{}, io.EOF
		}
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			return Row{}, &RowError{Line: pe.Line, Err: pe.Err}
		}
		return Row{}, &RowError{Err: err}
	}
	t := make(relation.Tuple, len(r.plan.attrIdx))
	for i, idx := range r.plan.attrIdx {
		v, err := textio.ParseCell(rec[idx])
		if err != nil {
			line, _ := r.cr.FieldPos(0)
			return Row{}, &RowError{Line: line, Err: fmt.Errorf("attribute %s: %w", r.plan.sch.Name(relation.Attr(i)), err)}
		}
		t[i] = v
	}
	src, err := r.plan.source(rec)
	if err != nil {
		line, _ := r.cr.FieldPos(0)
		return Row{}, &RowError{Line: line, Err: err}
	}
	return Row{Key: r.plan.key(rec), Tuple: t, Source: src}, nil
}

// NDJSONReader reads dataset rows from newline-delimited JSON. Two line
// shapes are accepted:
//
//   - objects mapping column names to values: {"name": "Edith", "kids": 2}
//     — attributes absent from an object read as null, unknown fields are
//     ignored;
//   - arrays aligned to a column list supplied up front (the wire shape of
//     the HTTP dataset endpoint).
//
// Values are null, strings or numbers; integral numbers decode as ints.
type NDJSONReader struct {
	sc     *bufio.Scanner
	sch    *relation.Schema
	keys   []string
	plan   *columnPlan // nil in object mode
	lineNo int
}

// NewNDJSONReader reads object-shaped lines, grouping by the named key
// fields.
func NewNDJSONReader(r io.Reader, sch *relation.Schema, keyCols []string) (*NDJSONReader, error) {
	if len(keyCols) == 0 {
		return nil, fmt.Errorf("dataset: no key columns configured")
	}
	return &NDJSONReader{sc: newLineScanner(r), sch: sch, keys: keyCols}, nil
}

// NewNDJSONArrayReader reads array-shaped lines aligned to columns.
func NewNDJSONArrayReader(r io.Reader, sch *relation.Schema, columns, keyCols []string) (*NDJSONReader, error) {
	plan, err := planColumns(sch, columns, keyCols)
	if err != nil {
		return nil, err
	}
	return &NDJSONReader{sc: newLineScanner(r), sch: sch, plan: plan}, nil
}

// newLineScanner scans lines of up to 16 MiB. Its buffer starts at
// bufio's default size and doubles only as far as the longest line needs.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	return sc
}

// SetMaxLineBytes caps one input line (default 16 MiB) — servers align
// this with their request-size limits. Must be called before the first
// Read; an oversized line then surfaces as a RowError wrapping
// bufio.ErrTooLong.
func (r *NDJSONReader) SetMaxLineBytes(n int) {
	if n <= 0 {
		return
	}
	r.sc.Buffer(nil, n)
}

// Read returns the next row or io.EOF.
func (r *NDJSONReader) Read() (Row, error) {
	for r.sc.Scan() {
		r.lineNo++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" {
			continue
		}
		if r.plan != nil {
			return r.readArray(line)
		}
		return r.readObject(line)
	}
	if err := r.sc.Err(); err != nil {
		return Row{}, &RowError{Line: r.lineNo + 1, Err: err}
	}
	return Row{}, io.EOF
}

func (r *NDJSONReader) readObject(line string) (Row, error) {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		return Row{}, &RowError{Line: r.lineNo, Err: err}
	}
	keyParts := make([]string, len(r.keys))
	for i, k := range r.keys {
		raw, ok := obj[k]
		if !ok {
			return Row{}, &RowError{Line: r.lineNo, Err: fmt.Errorf("missing key field %q", k)}
		}
		v, err := relation.FromJSONScalar(raw)
		if err != nil {
			return Row{}, &RowError{Line: r.lineNo, Err: fmt.Errorf("key field %q: %w", k, err)}
		}
		keyParts[i] = v.String()
	}
	t := make(relation.Tuple, r.sch.Len())
	for i, name := range r.sch.Names() {
		raw, ok := obj[name]
		if !ok {
			t[i] = relation.Null
			continue
		}
		v, err := relation.FromJSONScalar(raw)
		if err != nil {
			return Row{}, &RowError{Line: r.lineNo, Err: fmt.Errorf("attribute %q: %w", name, err)}
		}
		t[i] = v
	}
	src := ""
	if raw, ok := obj[relation.ReservedColumn]; ok {
		v, err := relation.FromJSONScalar(raw)
		if err != nil {
			return Row{}, &RowError{Line: r.lineNo, Err: fmt.Errorf("field %q: %w", relation.ReservedColumn, err)}
		}
		if !v.IsNull() {
			src = v.String()
		}
	}
	return Row{Key: strings.Join(keyParts, keySep), Tuple: t, Source: src}, nil
}

func (r *NDJSONReader) readArray(line string) (Row, error) {
	var arr []json.RawMessage
	if err := json.Unmarshal([]byte(line), &arr); err != nil {
		return Row{}, &RowError{Line: r.lineNo, Err: err}
	}
	if len(arr) < r.plan.need {
		return Row{}, &RowError{Line: r.lineNo, Err: fmt.Errorf("row has %d values, columns need %d", len(arr), r.plan.need)}
	}
	cells := make([]string, len(arr))
	vals := make([]relation.Value, len(arr))
	for i, raw := range arr {
		v, err := relation.FromJSONScalar(raw)
		if err != nil {
			return Row{}, &RowError{Line: r.lineNo, Err: fmt.Errorf("column %d: %w", i, err)}
		}
		vals[i] = v
		cells[i] = v.String()
	}
	t := make(relation.Tuple, len(r.plan.attrIdx))
	for i, idx := range r.plan.attrIdx {
		t[i] = vals[idx]
	}
	src := ""
	if r.plan.srcIdx >= 0 && !vals[r.plan.srcIdx].IsNull() {
		src = vals[r.plan.srcIdx].String()
	}
	return Row{Key: r.plan.key(cells), Tuple: t, Source: src}, nil
}
