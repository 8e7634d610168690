package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

// ingestRequest is the POST items body as encoding/json sees it.
type ingestRequest struct {
	Items []int `json:"items"`
}

// stdDecode is the generic path the streaming decoder replaced on the
// ingest route: encoding/json with unknown fields rejected, the exact
// decodeBody configuration.
func stdDecode(body string) ([]int, error) {
	dec := json.NewDecoder(io.LimitReader(strings.NewReader(body), maxIngestBody))
	dec.DisallowUnknownFields()
	var req ingestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return req.Items, nil
}

// TestItemsDecoderParity: on every body the old path accepted, the
// streaming decoder must produce the same items; on every body it
// rejected, the streaming decoder must reject too. (The reverse is not
// required — the handler contract only promises a 400, so the decoder
// may reject pathological bodies like escaped keys that encoding/json
// would have accepted.)
func TestItemsDecoderParity(t *testing.T) {
	bodies := []string{
		`{"items":[1,2,3]}`,
		`{"items":[0]}`,
		`{"items":[]}`,
		`{"items":[-5,17,-1]}`,
		`{"items":null}`,
		`{}`,
		`null`,
		`  {
			"items" : [ 1 ,	2 ]
		}  `,
		`{"items":[1,2]} trailing garbage ignored`,
		`{"items":[1],"items":[7,8]}`, // dup key: last wins
		`{"items":[9223372036854775807]}`,
		"{\"items\":[1,2]}\n",
		// Rejected by both paths:
		``,
		`{`,
		`{"items":`,
		`{"items":[1,`,
		`{"items":[1`,
		`{"items":[1.5]}`,
		`{"items":[1e3]}`,
		`{"items":["a"]}`,
		`{"items":[true]}`,
		`{"items":[01]}`,
		`{"items":[9223372036854775808]}`,
		`{"items":{}}`,
		`{"items":[[1]]}`,
		`{"other":[1]}`,
		`{"items":[1],"other":2}`,
		`[1,2]`,
		`"items"`,
		`42`,
		`nul`,
		`{"items" [1]}`,
		`{"items":[1] "x":2}`,
		`{items:[1]}`,
	}
	for _, body := range bodies {
		t.Run(fmt.Sprintf("%.32q", body), func(t *testing.T) {
			want, wantErr := stdDecode(body)
			d := getItemsDecoder()
			defer putItemsDecoder(d)
			got, gotErr := d.decode(strings.NewReader(body))
			if wantErr != nil {
				if gotErr == nil {
					t.Fatalf("encoding/json rejected (%v); streaming decoder accepted %v", wantErr, got)
				}
				return
			}
			if gotErr != nil {
				t.Fatalf("encoding/json accepted %v; streaming decoder rejected: %v", want, gotErr)
			}
			if len(got) != len(want) {
				t.Fatalf("items = %v, encoding/json got %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("items = %v, encoding/json got %v", got, want)
				}
			}
		})
	}
}

// TestItemsDecoderSmallReads: correctness must not depend on read
// chunking — a body dribbled one byte at a time decodes identically.
func TestItemsDecoderSmallReads(t *testing.T) {
	body := `{"items":[10,20,30,40,50]}`
	d := getItemsDecoder()
	defer putItemsDecoder(d)
	got, err := d.decode(iotest{r: strings.NewReader(body)})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("items = %v, want %v", got, want)
		}
	}
}

// iotest yields one byte per Read.
type iotest struct{ r io.Reader }

func (o iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// TestItemsDecoderAllocs pins the zero-copy claim: a pooled decoder in
// steady state decodes a batch with zero allocations — no per-item
// staging, no []json.RawMessage, nothing.
func TestItemsDecoderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var body bytes.Buffer
	body.WriteString(`{"items":[0`)
	for i := 1; i < 512; i++ {
		fmt.Fprintf(&body, ",%d", i)
	}
	body.WriteString(`]}`)
	d := getItemsDecoder()
	defer putItemsDecoder(d)
	r := bytes.NewReader(body.Bytes())
	if _, err := d.decode(r); err != nil { // warm the arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body.Bytes())
		items, err := d.decode(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 512 {
			t.Fatalf("decoded %d items", len(items))
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state decode = %v allocs/op, want 0", allocs)
	}
}

// BenchmarkIngestZeroCopy is the tracked-baseline benchmark of the
// ingest body decode (see BENCH_baseline.json and the CI bench smoke):
// the pooled streaming decoder (zerocopy) against the encoding/json
// path it replaced (stdjson) on an identical 512-element batch. The
// zerocopy steady state is 0 allocs/op; stdjson pays reflection plus
// slice staging per batch.
func BenchmarkIngestZeroCopy(b *testing.B) {
	var body bytes.Buffer
	body.WriteString(`{"items":[0`)
	for i := 1; i < 512; i++ {
		fmt.Fprintf(&body, ",%d", i)
	}
	body.WriteString(`]}`)
	raw := body.Bytes()

	b.Run("zerocopy", func(b *testing.B) {
		d := getItemsDecoder()
		defer putItemsDecoder(d)
		r := bytes.NewReader(raw)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(raw)
			if _, err := d.decode(r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdjson", func(b *testing.B) {
		r := bytes.NewReader(raw)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(raw)
			dec := json.NewDecoder(io.LimitReader(r, maxIngestBody))
			dec.DisallowUnknownFields()
			var req ingestRequest
			if err := dec.Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
