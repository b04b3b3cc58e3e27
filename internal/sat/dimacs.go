package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteDIMACS serializes the formula in the standard DIMACS CNF format:
// variables are 1-based, negative numbers are negated literals, clauses end
// with 0. DIMACS has no groups, so each group is written as its
// transitivity clauses after the clauses.
func (c *CNF) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", c.NVars, len(c.Clauses)+c.NumTriples())
	write := func(cl ...Lit) bool {
		for _, l := range cl {
			v := int(l.Var()) + 1
			if l.Neg() {
				v = -v
			}
			fmt.Fprintf(bw, "%d ", v)
		}
		fmt.Fprintln(bw, "0")
		return true
	}
	for _, cl := range c.Clauses {
		write(cl...)
	}
	c.eachTriple(func(a, b, d Lit) bool { return write(a, b, d) })
	return bw.Flush()
}

// ReadDIMACS parses a DIMACS CNF file. Comment lines ("c ...") are skipped;
// the problem line ("p cnf V C") is honoured for the variable count but the
// clause count is taken from the actual content. Clauses may span lines.
func ReadDIMACS(r io.Reader) (*CNF, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<26)
	c := NewCNF(0)
	var cur []Lit
	sawProblem := false
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("sat: bad problem line %q", line)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 {
				return nil, fmt.Errorf("sat: bad variable count in %q", line)
			}
			c.NVars = nv
			sawProblem = true
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("sat: bad literal %q", tok)
			}
			if n == 0 {
				c.Add(cur...)
				cur = cur[:0]
				continue
			}
			v := n
			neg := false
			if v < 0 {
				v, neg = -v, true
			}
			cur = append(cur, MkLit(Var(v-1), neg))
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("sat: %w", err)
	}
	if len(cur) > 0 {
		return nil, fmt.Errorf("sat: unterminated clause at end of input")
	}
	if !sawProblem {
		return nil, fmt.Errorf("sat: missing problem line")
	}
	return c, nil
}
