package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strings"
)

// logSuffix names a project's delta log: the base key with ".json"
// replaced. The name matches neither "*.json" nor a dot-file, so tools that
// glob a store directory for snapshots, List and the temp-litter sweep all
// see the base alone.
const logSuffix = ".log"

// logKey maps a snapshot key to its delta log's key.
func logKey(key string) string {
	return strings.TrimSuffix(key, ".json") + logSuffix
}

// logLine is one save's delta in a project's log: the entries whose
// pointer differs from the previous state's, and the fingerprints that are
// gone. Keys are fingerprints, which carry the config digest, so a line
// replayed over any base adds only entries that are valid for their keys.
type logLine struct {
	Put map[string]TaskEntry `json:"put,omitempty"`
	Del []string             `json:"del,omitempty"`
}

// delta returns next's difference from prev as one encoded log line,
// newline-terminated, or nil when nothing changed. Map keys come out
// sorted, as encoding/json writes them, and so does Del.
func delta(prev, next *Snapshot) ([]byte, error) {
	var l logLine
	for fp, e := range next.Tasks {
		if old, ok := prev.Tasks[fp]; ok && old == e {
			continue
		}
		if l.Put == nil {
			l.Put = make(map[string]TaskEntry)
		}
		if e == nil {
			e = &TaskEntry{} // a null entry decodes as a zero one
		}
		l.Put[fp] = *e
	}
	for fp := range prev.Tasks {
		if _, ok := next.Tasks[fp]; !ok {
			l.Del = append(l.Del, fp)
		}
	}
	if l.Put == nil && l.Del == nil {
		return nil, nil
	}
	sort.Strings(l.Del)
	line, err := json.Marshal(l)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// replayLog applies a delta log's lines to snap in order, stopping at the
// first line that fails to decode or lacks its newline (a torn tail). It
// returns how many bytes it applied and whether it stopped early; the
// stopping line is the one salvaged entry a torn log costs. The loop
// observes ctx between lines.
func replayLog(ctx context.Context, snap *Snapshot, data []byte) (consumed int, torn bool, err error) {
	for consumed < len(data) {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		n := bytes.IndexByte(data[consumed:], '\n')
		if n < 0 {
			return consumed, true, nil
		}
		var l logLine
		if json.Unmarshal(data[consumed:consumed+n], &l) != nil {
			return consumed, true, nil
		}
		for _, fp := range l.Del {
			delete(snap.Tasks, fp)
		}
		for fp, e := range l.Put {
			snap.Tasks[fp] = &e
		}
		consumed += n + 1
	}
	return consumed, false, nil
}
