package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Exposition quantiles for histogram families. Prometheus text format has no
// native sparse-log-linear histogram, so histograms export as summaries:
// pre-computed quantiles plus _sum and _count.
var summaryQuantiles = []float64{0.5, 0.9, 0.95, 0.99}

// WriteText writes the registry in Prometheus text exposition format
// (version 0.0.4). Counters and gauges emit one sample per child; histograms
// emit a summary (quantile series + _sum + _count).
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.Families() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		typ := "counter"
		switch f.kind {
		case KindGauge:
			typ = "gauge"
		case KindHistogram:
			typ = "summary"
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, typ)
		for _, c := range f.Children() {
			switch f.kind {
			case KindCounter, KindGauge:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(f.labels, c.labelValues, "", ""), c.Value())
			case KindHistogram:
				h := c.hist
				for _, q := range summaryQuantiles {
					fmt.Fprintf(bw, "%s%s %s\n",
						f.name,
						labelString(f.labels, c.labelValues, "quantile", formatFloat(q)),
						formatFloat(h.Quantile(q)))
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, labelString(f.labels, c.labelValues, "", ""), formatFloat(h.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labelString(f.labels, c.labelValues, "", ""), h.Count())
			}
		}
	}
	return bw.Flush()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelString renders {k="v",...}, optionally with one extra pair appended
// (used for quantile labels). Empty label sets render as "".
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(names[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(extraValue)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// FamilySnapshot is the JSON form of one family.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Kind    string           `json:"kind"`
	Labels  []string         `json:"labels,omitempty"`
	Samples []SampleSnapshot `json:"samples"`
}

// SampleSnapshot is the JSON form of one instrument.
type SampleSnapshot struct {
	LabelValues []string `json:"labelValues,omitempty"`
	// Value is set for counters and gauges.
	Value int64 `json:"value,omitempty"`
	// Histogram fields.
	Count     int64              `json:"count,omitempty"`
	Sum       float64            `json:"sum,omitempty"`
	Min       float64            `json:"min,omitempty"`
	Max       float64            `json:"max,omitempty"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// Snapshot captures the registry for the JSON variant of /metrics.
func (r *Registry) Snapshot() []FamilySnapshot {
	fams := r.Families()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String(), Labels: f.labels}
		for _, c := range f.Children() {
			s := SampleSnapshot{LabelValues: c.labelValues}
			if f.kind == KindHistogram {
				h := c.hist
				s.Count = h.Count()
				s.Sum = h.Sum()
				s.Min = h.Min()
				s.Max = h.Max()
				s.Quantiles = map[string]float64{}
				for _, q := range summaryQuantiles {
					s.Quantiles[formatFloat(q)] = h.Quantile(q)
				}
			} else {
				s.Value = c.Value()
			}
			fs.Samples = append(fs.Samples, s)
		}
		out = append(out, fs)
	}
	return out
}

// Sample is one parsed exposition line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText parses Prometheus text exposition format back into samples. It
// exists for the end-to-end scrape test: parse failure means the endpoint
// emits text a real scraper would reject. It validates metric/label name
// syntax and rejects malformed lines rather than skipping them.
func ParseText(data string) ([]Sample, error) {
	var out []Sample
	for ln, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	// Metric name runs to '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	s.Name = rest[:end]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	if strings.HasPrefix(rest, "{") {
		close := strings.Index(rest, "}")
		if close < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:close], s.Labels); err != nil {
			return s, err
		}
		rest = rest[close+1:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; we emit none, so reject extra fields.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, into map[string]string) error {
	for body != "" {
		eq := strings.Index(body, "=")
		if eq < 0 {
			return fmt.Errorf("label pair %q missing '='", body)
		}
		name := body[:eq]
		if !validLabelName(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		body = body[eq+1:]
		if !strings.HasPrefix(body, `"`) {
			return fmt.Errorf("label %s value not quoted", name)
		}
		body = body[1:]
		var val strings.Builder
		i := 0
		for ; i < len(body); i++ {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(body[i])
				}
				continue
			}
			if body[i] == '"' {
				break
			}
			val.WriteByte(body[i])
		}
		if i >= len(body) {
			return fmt.Errorf("label %s value unterminated", name)
		}
		into[name] = val.String()
		body = body[i+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// SumBy aggregates parsed samples of one metric by a label, summing values.
// Samples missing the label aggregate under "". It is the workhorse of the
// scrape-invariant tests (e.g. sum of per-table counters == broker total).
func SumBy(samples []Sample, metric, label string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		if s.Name != metric {
			continue
		}
		out[s.Labels[label]] += s.Value
	}
	return out
}
