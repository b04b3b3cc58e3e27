package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"conflictres"
	"conflictres/internal/live"
)

// deltaJSON is one accepted delta in an entity's row-log, in the same cell
// forms the wire uses. A rows delta carries rows, sources and orders. An
// answers delta is marked by its kind: the first one of a session carries
// the entity's rows, sources and orders plus its entityId, and each later
// one carries one accepted answer round.
type deltaJSON struct {
	Kind     string                     `json:"kind,omitempty"`
	Rows     [][]json.RawMessage        `json:"rows,omitempty"`
	Sources  []string                   `json:"sources,omitempty"`
	Orders   []orderJSON                `json:"orders,omitempty"`
	EntityID string                     `json:"entityId,omitempty"`
	Answers  map[string]json.RawMessage `json:"answers,omitempty"`
}

// answersKind is the wire name of live.Answers; rows deltas carry no kind.
const answersKind = "answers"

// snapshotJSON is one NDJSON line of a snapshot — live entities and
// interactive sessions alike: the creation-time rule set and mode, then
// every accepted delta in arrival order. Replaying the deltas against a
// fresh entity under the same rules is deterministic, so restore
// reconstructs the exact state without serializing solver internals.
type snapshotJSON struct {
	Key    string          `json:"key"`
	Rules  json.RawMessage `json:"rules"`
	Mode   string          `json:"mode,omitempty"`
	Deltas []deltaJSON     `json:"deltas"`
}

// SnapshotLiveEntities serializes every live entity as one NDJSON line of
// replayable deltas — the rolling-restart path for the change-data-capture
// feed: drain, snapshot, restart, RestoreLiveEntities.
func (s *Server) SnapshotLiveEntities(w io.Writer) error { return writeSnapshot(w, s.liveReg) }

// SnapshotSessions serializes every interactive session as one NDJSON line
// of replayable deltas (its seed, then every accepted answer round) — the
// rolling-restart path: drain, snapshot, restart, RestoreSessions.
func (s *Server) SnapshotSessions(w io.Writer) error { return writeSnapshot(w, s.sessions) }

// writeSnapshot writes one line per entity of reg. Each line is written
// under its entity's lock, so a snapshot taken while deltas are in flight
// captures every entity at a delta boundary.
func writeSnapshot(w io.Writer, reg *live.Registry) error {
	enc := json.NewEncoder(w)
	_, _, err := reg.Snapshot(func(el live.EntityLog) error {
		rec := snapshotJSON{
			Key:    el.Key,
			Rules:  json.RawMessage(el.RulesWire),
			Mode:   el.Mode.Strategy.String(),
			Deltas: make([]deltaJSON, 0, len(el.Deltas)),
		}
		for _, d := range el.Deltas {
			dj, err := encodeDelta(d)
			if err != nil {
				return fmt.Errorf("%s: %w", el.Key, err)
			}
			rec.Deltas = append(rec.Deltas, dj)
		}
		return enc.Encode(&rec)
	})
	return err
}

func encodeDelta(d live.Delta) (deltaJSON, error) {
	dj := deltaJSON{Sources: d.Sources, EntityID: d.EntityID}
	if d.Kind == live.Answers {
		dj.Kind = answersKind
	}
	for _, row := range d.Rows {
		cells := make([]json.RawMessage, len(row))
		for i, v := range row {
			raw, err := json.Marshal(v.AsJSON())
			if err != nil {
				return dj, fmt.Errorf("encode cell: %w", err)
			}
			cells[i] = raw
		}
		dj.Rows = append(dj.Rows, cells)
	}
	for _, o := range d.Orders {
		dj.Orders = append(dj.Orders, orderJSON{Attr: o.Attr, T1: o.T1, T2: o.T2})
	}
	if d.Answers != nil {
		dj.Answers = make(map[string]json.RawMessage, len(d.Answers))
		for name, v := range d.Answers {
			raw, err := json.Marshal(v.AsJSON())
			if err != nil {
				return dj, fmt.Errorf("encode answer: %w", err)
			}
			dj.Answers[name] = raw
		}
	}
	return dj, nil
}

// RestoreLiveEntities rebuilds live entities from a SnapshotLiveEntities
// stream, replaying each entity's deltas under its original key. It returns
// how many entities were restored; an entity whose replay no longer applies
// cleanly (e.g. a truncated snapshot line) is dropped and counted in the
// returned error, not fatal to the rest. TTL clocks restart at the restore.
func (s *Server) RestoreLiveEntities(r io.Reader) (int, error) {
	n, skipped, err := s.restore(r, s.liveReg, live.Rows)
	s.met.liveRestored.Add(int64(n))
	s.met.liveRestoreSkipped.Add(int64(skipped))
	return n, err
}

// RestoreSessions rebuilds sessions from a SnapshotSessions stream under
// their original ids, so clients keep their handles across the restart. It
// returns how many sessions were restored; a line that does not replay
// cleanly — including one written in the snapshot format of builds before
// sessions moved into the registry — is skipped and counted in the returned
// error, not fatal to the rest. TTL clocks restart at the restore.
func (s *Server) RestoreSessions(r io.Reader) (int, error) {
	n, _, err := s.restore(r, s.sessions, live.Answers)
	return n, err
}

// restore replays every line of a snapshot stream into reg, whose entities
// are all of the given kind.
func (s *Server) restore(r io.Reader, reg *live.Registry, kind live.Kind) (restored, skipped int, err error) {
	noun, nouns := "entity", "entities"
	if kind == live.Answers {
		noun, nouns = "session", "sessions"
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), int(s.cfg.MaxBodyBytes))
	var firstErr error
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec snapshotJSON
		err := json.Unmarshal(line, &rec)
		switch {
		case err != nil:
			err = fmt.Errorf("bad snapshot line: %w", err)
		case rec.Key == "" || len(rec.Deltas) == 0:
			err = errors.New("snapshot line has no key or no deltas (written by an older build?)")
		default:
			if err = s.replay(reg, kind, &rec); err != nil {
				// Drop any partially replayed state: a half-restored entity
				// would serve answers missing acknowledged deltas.
				reg.Remove(rec.Key)
				err = fmt.Errorf("%s %s: %w", noun, rec.Key, err)
			}
		}
		if err != nil {
			skipped++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		restored++
	}
	if err := sc.Err(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return restored, skipped, fmt.Errorf("server: restore: %d %s skipped: %w", skipped, nouns, firstErr)
	}
	return restored, skipped, nil
}

// replay feeds one snapshot line's deltas through reg in order, exactly as
// the original operations arrived.
func (s *Server) replay(reg *live.Registry, kind live.Kind, rec *snapshotJSON) error {
	var rsj ruleSetJSON
	if err := json.Unmarshal(rec.Rules, &rsj); err != nil {
		return fmt.Errorf("rules: %w", err)
	}
	rules, rk, err := s.compileRules(&rsj)
	if err != nil {
		return err
	}
	strat, err := conflictres.ParseStrategy(rec.Mode)
	if err != nil {
		return err
	}
	mode := conflictres.ResolutionMode{Strategy: strat}
	var hash string // sessions carry none, as on create
	if kind == live.Rows {
		hash = rulesHash(rk, mode)
	}
	for i := range rec.Deltas {
		op, err := decodeDelta(rules, kind, &rec.Deltas[i], i == 0)
		if err != nil {
			return fmt.Errorf("delta %d: %w", i, err)
		}
		op.Mode, op.RulesWire = mode, rec.Rules
		if _, err := reg.Upsert(rec.Key, rules, hash, op); err != nil {
			return fmt.Errorf("delta %d: %w", i, err)
		}
	}
	return nil
}

// decodeDelta turns one logged delta back into the registry operation that
// produced it. first marks an entity's opening delta (a session's seed).
func decodeDelta(rules *conflictres.RuleSet, kind live.Kind, d *deltaJSON, first bool) (live.Op, error) {
	if (d.Kind == answersKind) != (kind == live.Answers) {
		return live.Op{}, fmt.Errorf("delta kind %q does not belong in this snapshot", d.Kind)
	}
	if kind == live.Rows {
		rows, err := decodeRows(rules, d.Rows)
		if err != nil {
			return live.Op{}, err
		}
		return live.Op{Rows: rows, Sources: d.Sources, Orders: liveOrders(d.Orders)}, nil
	}
	if first {
		spec, err := bindEntity(rules, d.Rows, d.Sources, d.Orders)
		if err != nil {
			return live.Op{}, err
		}
		return live.Op{Kind: live.Answers, Seed: spec, EntityID: d.EntityID}, nil
	}
	answers, err := decodeAnswers(rules.Schema(), d.Answers)
	if err != nil {
		return live.Op{}, err
	}
	return live.Op{Kind: live.Answers, Answers: answers}, nil
}
