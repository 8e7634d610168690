package service

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// MetricsWriter writes a /metrics body in the Prometheus text format
// 0.0.4: each family's "# HELP" and "# TYPE" lines once, then its
// samples, one Write per line. It holds no values: callers read their
// counters at scrape time and pass them in.
type MetricsWriter struct {
	w    io.Writer
	name string // the family the samples written next belong to
}

// NewMetricsWriter starts a text-format response on w.
func NewMetricsWriter(w http.ResponseWriter) *MetricsWriter {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	return &MetricsWriter{w: w}
}

// Family writes the "# HELP" and "# TYPE" lines of the family name (typ
// is "counter" or "gauge"); the samples written next belong to it.
func (m *MetricsWriter) Family(name, typ, help string) *MetricsWriter {
	m.name = name
	m.line("# HELP " + name + " " + help)
	m.line("# TYPE " + name + " " + typ)
	return m
}

// Int writes the family's unlabeled sample v.
func (m *MetricsWriter) Int(v int64) { m.line(m.name + " " + strconv.FormatInt(v, 10)) }

// LabeledInt writes the family's sample v for label="value".
func (m *MetricsWriter) LabeledInt(label, value string, v int64) {
	m.line(m.name + "{" + label + `="` + labelValue(value) + `"} ` + strconv.FormatInt(v, 10))
}

// Seconds writes the family's unlabeled sample d in seconds, with nine
// decimals.
func (m *MetricsWriter) Seconds(d time.Duration) {
	m.line(m.name + " " + strconv.FormatFloat(float64(d)/1e9, 'f', 9, 64))
}

// Age writes the family's unlabeled sample: the seconds since the Unix
// nanosecond time last, with three decimals, or -1 while last is 0
// (before the first event).
func (m *MetricsWriter) Age(last int64) {
	age := "-1"
	if last > 0 {
		age = strconv.FormatFloat(time.Since(time.Unix(0, last)).Seconds(), 'f', 3, 64)
	}
	m.line(m.name + " " + age)
}

// line writes s and its line feed in one Write. A failed write means
// the reader went away, and the rest of the body goes to no one.
func (m *MetricsWriter) line(s string) { io.WriteString(m.w, s+"\n") }

// labelValue escapes s as the text format defines a label value:
// backslash, double quote and line feed take a backslash, and nothing
// else does. Each byte of invalid UTF-8 becomes U+FFFD, as in the JSON
// listing of the same key (strings.ToValidUTF8 would merge a run of
// them into one).
func labelValue(s string) string {
	var b strings.Builder
	for _, r := range s { // an invalid byte ranges as one utf8.RuneError
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// BoolMetric renders b as the 0/1 value of a boolean gauge.
func BoolMetric(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
