package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
	labelStart = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="`)
)

// parseSample checks one sample line of the Prometheus text format,
// without its line feed and timestamp, against the format's grammar:
//
//	metric_name [ "{" label_name `="` label_value `"` { "," ... } [ "," ] "}" ] " " value
//
// A line is UTF-8, and a label value escapes backslash (\\), double
// quote (\") and line feed (\n) and nothing else. parseSample returns
// the metric name and the decoded label values by label name.
func parseSample(line string) (string, map[string]string, error) {
	if !utf8.ValidString(line) {
		return "", nil, errors.New("line is not UTF-8")
	}
	name := metricName.FindString(line)
	if name == "" {
		return "", nil, errors.New("no metric name")
	}
	rest, labels := line[len(name):], map[string]string{}
	if strings.HasPrefix(rest, "{") {
		for rest = rest[1:]; !strings.HasPrefix(rest, "}"); {
			label := labelStart.FindString(rest)
			if label == "" {
				return "", nil, fmt.Errorf("no label name at %q", rest)
			}
			var v strings.Builder
			for rest = rest[len(label):]; rest != "" && rest[0] != '"'; rest = rest[1:] {
				c := rest[0]
				if c == '\\' {
					switch {
					case strings.HasPrefix(rest, `\\`), strings.HasPrefix(rest, `\"`):
						c = rest[1]
					case strings.HasPrefix(rest, `\n`):
						c = '\n'
					default:
						return "", nil, fmt.Errorf("undefined escape at %q", rest)
					}
					rest = rest[1:]
				}
				v.WriteByte(c)
			}
			if rest == "" {
				return "", nil, errors.New("unterminated label value")
			}
			labels[strings.TrimSuffix(label, `="`)] = v.String()
			if rest = rest[1:]; strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			} else if !strings.HasPrefix(rest, "}") {
				return "", nil, fmt.Errorf("want , or } at %q", rest)
			}
		}
		rest = rest[1:]
	}
	value, ok := strings.CutPrefix(rest, " ")
	if !ok {
		return "", nil, fmt.Errorf("no space before the value at %q", rest)
	}
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		return "", nil, err
	}
	return name, labels, nil
}

// TestMetricsLabelEscaping: collection keys the text format cannot
// carry verbatim — a tab, a no-break space, an invalid UTF-8 byte, a
// line feed, a double quote and a backslash — still give a /metrics
// body whose every sample line parses, and each collection label
// decodes to the key as the JSON listing shows it. Go's %q escapes
// (\t, \u00a0, \xff) are not in the format, and a scraper that meets
// one rejects the whole page.
func TestMetricsLabelEscaping(t *testing.T) {
	svc := New(Config{Shards: 2, Workers: 1})
	defer svc.Close()
	h := svc.Handler()
	for _, key := range []string{"a\tb", "x\u00a0y", "bad\xffutf", "line\nfeed", `quote"back\slash`} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("PUT", "/v1/collections/"+url.PathEscape(key), strings.NewReader(`{"kind":"label","labels":[0,1]}`)))
		if w.Code != 201 {
			t.Fatalf("create %q: status %d: %s", key, w.Code, w.Body.Bytes())
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/collections", nil))
	var listing struct{ Collections []CollectionInfo }
	if err := json.Unmarshal(w.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, in := range listing.Collections {
		keys = append(keys, in.Key)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	labeled := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, err := parseSample(line)
		if err != nil {
			t.Fatalf("sample line %q does not parse: %v", line, err)
		}
		if key, ok := labels["collection"]; ok {
			labeled[name] = append(labeled[name], key)
		}
	}
	if len(labeled) == 0 {
		t.Fatal("no sample carries a collection label")
	}
	for name, got := range labeled {
		if !reflect.DeepEqual(got, keys) {
			t.Errorf("%s: collection labels decode to %q, want the listed keys %q", name, got, keys)
		}
	}
}

// FuzzMetricsLabel: for any label value, the sample line the writer
// renders parses under the text-format grammar, and its label decodes
// to the value as an encoding/json round trip gives it back.
func FuzzMetricsLabel(f *testing.F) {
	for _, s := range []string{"", "plain", "a\tb", "x\u00a0y", "bad\xffutf", "\xe2\x82", "line\nfeed", `quote"back\slash`, `\n`} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		w := httptest.NewRecorder()
		NewMetricsWriter(w).Family("ecsort_fuzz", "gauge", "Fuzzed label value.").LabeledInt("collection", s, 1)
		lines := strings.Split(w.Body.String(), "\n")
		if len(lines) != 4 || lines[3] != "" {
			t.Fatalf("body %q: want three lines", w.Body.String())
		}
		_, labels, err := parseSample(lines[2])
		if err != nil {
			t.Fatalf("sample line %q does not parse: %v", lines[2], err)
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if labels["collection"] != want {
			t.Fatalf("label decodes to %q, want %q", labels["collection"], want)
		}
	})
}
