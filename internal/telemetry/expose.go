package telemetry

// Prometheus text exposition (format 0.0.4): the encoder renders a registry
// snapshot, the parser validates a scrape — the CI endpoint smoke test runs
// the parser against a live soda-server /metrics response. Also the JSONL
// plumbing every /debug record endpoint shares: one ?limit=/?session= parser
// and one filter-tail-encode writer.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WriteExposition renders every registered metric in the Prometheus text
// format, families sorted by name. Snapshot orders the series of one family
// contiguously, so # HELP / # TYPE are due exactly when the family name
// changes between consecutive entries.
func (r *Registry) WriteExposition(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, snap := range r.Snapshot() {
		if snap.Name != lastFamily {
			if snap.Help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", snap.Name, strings.ReplaceAll(snap.Help, "\n", " "))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", snap.Name, snap.Kind)
			lastFamily = snap.Name
		}
		if snap.Kind == "histogram" {
			for _, b := range snap.Buckets {
				fmt.Fprintf(bw, "%s_bucket%s %d\n", snap.Name,
					formatLabels(snap.Labels, Label{Key: "le", Value: formatValue(b.UpperBound)}), b.Count)
			}
			fmt.Fprintf(bw, "%s_bucket%s %d\n", snap.Name,
				formatLabels(snap.Labels, Label{Key: "le", Value: "+Inf"}), snap.Count)
			fmt.Fprintf(bw, "%s_sum%s %s\n", snap.Name, formatLabels(snap.Labels), formatValue(snap.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", snap.Name, formatLabels(snap.Labels), snap.Count)
			continue
		}
		fmt.Fprintf(bw, "%s%s %s\n", snap.Name, formatLabels(snap.Labels), formatValue(snap.Value))
	}
	return bw.Flush()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, l.Key, escapeLabelValue(l.Value))
	}
	sb.WriteByte('}')
	return sb.String()
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ExpositionFamily summarises one parsed metric family.
type ExpositionFamily struct {
	Type    string
	Samples int
}

// ParseExposition reads a Prometheus text-format payload and validates it:
// every sample line must parse, belong to a family declared by a preceding
// # TYPE line, and no family may be declared twice. It returns the parsed
// families keyed by name.
func ParseExposition(r io.Reader) (map[string]ExpositionFamily, error) {
	families := map[string]ExpositionFamily{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		switch {
		case strings.TrimSpace(line) == "":
			continue
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			name, typ := fields[2], fields[3]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
			}
			if _, dup := families[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate metric family %s", lineNo, name)
			}
			families[name] = ExpositionFamily{Type: typ}
		case strings.HasPrefix(line, "#"):
			continue // HELP and comments
		default:
			name, err := parseSampleLine(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			famName := sampleFamily(name, families)
			if famName == "" {
				return nil, fmt.Errorf("line %d: sample %s has no preceding # TYPE declaration", lineNo, name)
			}
			fam := families[famName]
			fam.Samples++
			families[famName] = fam
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return families, nil
}

// sampleFamily resolves a sample name to its declared family, accounting for
// the histogram/summary series suffixes.
func sampleFamily(name string, families map[string]ExpositionFamily) string {
	if _, ok := families[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if fam, ok := families[base]; ok && (fam.Type == "histogram" || fam.Type == "summary") {
			return base
		}
	}
	return ""
}

// parseSampleLine validates one `name{labels} value [timestamp]` line and
// returns the metric name.
func parseSampleLine(line string) (string, error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	var name string
	if brace >= 0 {
		name = rest[:brace]
		end := strings.IndexByte(rest, '}')
		if end < brace {
			return "", fmt.Errorf("unbalanced braces in %q", line)
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", fmt.Errorf("malformed sample line %q", line)
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	if !nameOK(name) {
		return "", fmt.Errorf("invalid metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", fmt.Errorf("malformed sample line %q", line)
	}
	if _, err := parseSampleValue(fields[0]); err != nil {
		return "", fmt.Errorf("bad value in %q: %w", line, err)
	}
	return name, nil
}

func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf", "-Inf", "NaN":
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}

// MetricsHandler serves the registry in the Prometheus text format. Each
// onScrape hook runs before encoding, so pull-only sources (cache occupancy,
// arm aggregates) can refresh their gauges per scrape.
func MetricsHandler(reg *Registry, onScrape ...func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for _, hook := range onScrape {
			hook()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WriteExposition(w); err != nil {
			// Headers are gone; the client sees a truncated body.
			return
		}
	})
}

// DecisionsHandler serves the trace ring as JSONL (newest ?limit= events,
// default the whole ring; ?session=N keeps one session's events so timeline
// reconstruction needs no client-side scan), for `curl /debug/decisions | jq`.
func DecisionsHandler(ring *Ring[DecisionEvent]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q, ok := ParseQuery(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		// A failed write means the client hung up.
		_ = WriteJSONL(w, ring.Snapshot(), q.Limit, func(ev *DecisionEvent) bool { return q.Keeps(ev.Session) })
	})
}

// AllSessions is the Query session filter that keeps every record.
const AllSessions int32 = -1

// Query is the parsed filter of the /debug JSONL endpoints: ?limit= keeps the
// newest Limit records after filtering (0 = all) and ?session= keeps one
// session's records (AllSessions = no filter). Filtering comes before the
// cut, so `?session=N&limit=K` is the newest K records *of that session*.
type Query struct {
	Limit   int
	Session int32
}

// ParseQuery reads ?limit= and ?session= from r. On a malformed value it
// answers 400 on w and returns ok=false; the handler just returns.
func ParseQuery(w http.ResponseWriter, r *http.Request) (q Query, ok bool) {
	q.Session = AllSessions
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
			return q, false
		}
		q.Limit = n
	}
	if s := r.URL.Query().Get("session"); s != "" {
		n, err := strconv.ParseInt(s, 10, 32)
		if err != nil || n < 0 {
			http.Error(w, "session must be a non-negative int32", http.StatusBadRequest)
			return q, false
		}
		q.Session = int32(n)
	}
	return q, true
}

// Keeps reports whether a record of the given session passes the filter.
func (q Query) Keeps(session int32) bool {
	return q.Session == AllSessions || session == q.Session
}

// WriteJSONL writes recs (oldest first) as one JSON object per line: the
// records keep accepts (nil keeps all), then only the newest limit of those
// when limit is positive. recs is filtered in place.
func WriteJSONL[T any](w io.Writer, recs []T, limit int, keep func(*T) bool) error {
	if keep != nil {
		kept := recs[:0]
		for i := range recs {
			if keep(&recs[i]) {
				kept = append(kept, recs[i])
			}
		}
		recs = kept
	}
	if limit > 0 && len(recs) > limit {
		recs = recs[len(recs)-limit:]
	}
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}
