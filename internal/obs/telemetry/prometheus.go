// Package telemetry is the host-side telemetry plane: it surfaces the
// deterministic observability layer (internal/obs) at runtime over HTTP.
// Each process serves a Prometheus-text /metrics endpoint rendered from an
// obs.Registry snapshot, /healthz and /statusz liveness and protocol-state
// endpoints, the standard net/http/pprof profile handlers, and a /flight
// endpoint streaming the node's flight-recorder ring as a BFTTRC01 trace.
//
// The package deliberately sits on the wall-clock side of the proc.Env
// boundary: it spawns goroutines, reads real clocks, and serializes with
// sync — everything the engine contract forbids — and reaches engine state
// only through caller-supplied snapshot closures, which hosts implement
// with transport.Node.Do so every read happens in the engine's own event
// context. It imports obs for the metric and event types but never touches
// an engine directly.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"bftfast/internal/obs"
)

// quantiles are the summary quantiles rendered per histogram, matching the
// obs.Metric snapshot fields.
var quantiles = [...]struct {
	label string
	pick  func(m *obs.Metric) int64
}{
	{"0.5", func(m *obs.Metric) int64 { return m.P50 }},
	{"0.9", func(m *obs.Metric) int64 { return m.P90 }},
	{"0.99", func(m *obs.Metric) int64 { return m.P99 }},
}

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4). Metric names are prefixed with
// namespace and sanitized (every character outside [a-zA-Z0-9_:] becomes
// an underscore, so the registry's dotted names read as families:
// "engine.view" -> "bft_engine_view"). labels are constant labels attached
// to every series, with full label-value escaping.
//
// Gauges render as one series each. Histograms render as
// summaries — one series per quantile plus _sum and _count — and a _max
// gauge, so a scrape carries the same information as obs.Metric.
func WritePrometheus(w io.Writer, namespace string, labels map[string]string, ms []obs.Metric) error {
	bw := bufio.NewWriter(w)
	base := renderLabels(labels, "", "")
	for i := range ms {
		m := &ms[i]
		name := sanitizeName(namespace, m.Name)
		switch m.Kind {
		case obs.KindGauge:
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s%s %d\n", name, name, base, m.Value)
		case obs.KindHistogram:
			fmt.Fprintf(bw, "# TYPE %s summary\n", name)
			for _, q := range quantiles {
				fmt.Fprintf(bw, "%s%s %d\n", name, renderLabels(labels, "quantile", q.label), q.pick(m))
			}
			fmt.Fprintf(bw, "%s_sum%s %d\n", name, base, m.Sum)
			fmt.Fprintf(bw, "%s_count%s %d\n", name, base, m.Count)
			fmt.Fprintf(bw, "# TYPE %s_max gauge\n%s_max%s %d\n", name, name, base, m.Max)
		}
	}
	return bw.Flush()
}

// sanitizeName maps a registry metric name into the Prometheus name
// alphabet under a namespace prefix.
func sanitizeName(namespace, name string) string {
	var b strings.Builder
	b.Grow(len(namespace) + 1 + len(name))
	if namespace != "" {
		b.WriteString(namespace)
		b.WriteByte('_')
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if b.Len() == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// renderLabels renders a label set (plus one optional extra pair) as
// {k="v",...} with keys sorted, or "" when empty.
func renderLabels(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels)+1)
	for k := range labels {
		keys = append(keys, k)
	}
	if extraKey != "" {
		keys = append(keys, extraKey)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		v := labels[k]
		if k == extraKey {
			v = extraVal
		}
		b.WriteString(sanitizeName("", k))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition-format label escapes: backslash,
// double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 4)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// Sample is one parsed exposition series: a metric name, its label set,
// and the sample value. The parser is the consumer half of
// WritePrometheus, used by cmd/bft-top to aggregate fleet scrapes; it
// accepts the general text format (comments skipped, escapes decoded).
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns the sample's value for a label key ("" when absent).
func (s *Sample) Label(key string) string { return s.Labels[key] }

// ParsePrometheus parses a text-format exposition into samples, skipping
// comment and blank lines. Malformed lines yield an error naming the line
// number.
func ParsePrometheus(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading exposition: %w", err)
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; take the first field.
	if j := strings.IndexAny(rest, " \t"); j >= 0 {
		rest = rest[:j]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels decodes a {k="v",...} block starting at text[0] == '{',
// returning the index just past the closing brace.
func parseLabels(text string, into map[string]string) (int, error) {
	i := 1
	for {
		for i < len(text) && (text[i] == ',' || text[i] == ' ') {
			i++
		}
		if i < len(text) && text[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(text[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("unterminated label block %q", text)
		}
		key := strings.TrimSpace(text[i : i+eq])
		i += eq + 1
		if i >= len(text) || text[i] != '"' {
			return 0, fmt.Errorf("unquoted label value in %q", text)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(text) {
				return 0, fmt.Errorf("unterminated label value in %q", text)
			}
			c := text[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' && i+1 < len(text) {
				i++
				switch text[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(text[i])
				}
				i++
				continue
			}
			b.WriteByte(c)
			i++
		}
		into[key] = b.String()
	}
}
