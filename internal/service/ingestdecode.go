package service

import (
	"fmt"
	"io"
	"math"
	"sync"
)

// Streaming decoder for the POST items body. The generic json.Decoder
// path costs reflection plus intermediate storage per element; ingest
// is the service's hottest write, so its body — {"items":[ints]} and
// nothing else — is parsed by hand, straight from the read buffer into
// a reusable []int arena. Decoders are pooled: in steady state a batch
// of any size costs zero per-item allocations (the arena and read
// buffer are reused, nothing is staged through []json.RawMessage or
// interface boxes).
//
// Accepted bodies match decodeBody's semantics on an {"items": [...]}
// struct: an object with at most the "items" key (unknown fields
// rejected), whose value is an array of JSON integers or null; a bare
// null body is the empty ingest; trailing bytes after the top-level
// value are ignored; floats and other non-integer tokens are rejected.

// maxIngestBody bounds the POST items body, matching decodeBody's
// limit for the other routes.
const maxIngestBody = 64 << 20

// itemsDecoder holds one decode's streaming state plus the reusable
// buffers that make repeat decodes allocation-free.
type itemsDecoder struct {
	r     io.Reader
	buf   []byte // read buffer, refilled in place
	pos   int    // next unread byte in buf[:end]
	end   int    // valid bytes in buf
	items []int  // output arena, reused across decodes
}

var itemsDecoders = sync.Pool{
	New: func() any {
		return &itemsDecoder{buf: make([]byte, 16<<10), items: make([]int, 0, 256)}
	},
}

// getItemsDecoder checks a decoder out of the pool; putItemsDecoder
// returns it once the decoded slice is no longer referenced (Ingest
// copies what it keeps, so after the service call returns).
func getItemsDecoder() *itemsDecoder  { return itemsDecoders.Get().(*itemsDecoder) }
func putItemsDecoder(d *itemsDecoder) { d.r = nil; itemsDecoders.Put(d) }

func (d *itemsDecoder) badf(format string, args ...any) error {
	return fmt.Errorf("service: bad request body: "+format, args...)
}

// bad wraps a read error; a body that ends mid-value surfaces as
// unexpected EOF rather than a silent truncation.
func (d *itemsDecoder) bad(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("service: bad request body: %w", err)
}

// readByte returns the next body byte, refilling the buffer in place.
func (d *itemsDecoder) readByte() (byte, error) {
	for d.pos >= d.end {
		n, err := d.r.Read(d.buf)
		d.pos, d.end = 0, n
		if n == 0 {
			if err == nil {
				continue
			}
			return 0, err
		}
	}
	c := d.buf[d.pos]
	d.pos++
	return c, nil
}

// unread steps back over the byte readByte just returned. Valid only
// immediately after a successful readByte (pos > 0 then).
func (d *itemsDecoder) unread() { d.pos-- }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// nextNonSpace returns the next non-whitespace byte.
func (d *itemsDecoder) nextNonSpace() (byte, error) {
	for {
		c, err := d.readByte()
		if err != nil || !isSpace(c) {
			return c, err
		}
	}
}

// expect consumes exactly the bytes of lit ("ull" after an 'n', ...).
func (d *itemsDecoder) expect(lit string) error {
	for i := 0; i < len(lit); i++ {
		c, err := d.readByte()
		if err != nil {
			return d.bad(err)
		}
		if c != lit[i] {
			return d.badf("invalid token")
		}
	}
	return nil
}

// decode parses one ingest body from r into the reusable arena and
// returns the decoded items. The returned slice aliases the decoder;
// callers must finish with it before putItemsDecoder.
//
//ecsort:hotpath
func (d *itemsDecoder) decode(r io.Reader) ([]int, error) {
	d.r = r
	d.pos, d.end = 0, 0
	d.items = d.items[:0]
	c, err := d.nextNonSpace()
	if err != nil {
		return nil, d.bad(err)
	}
	if c == 'n' {
		// A bare null body decodes to the zero struct: no items.
		if err := d.expect("ull"); err != nil {
			return nil, err
		}
		return d.items, nil
	}
	if c != '{' {
		return nil, d.badf("expected an object")
	}
	if c, err = d.nextNonSpace(); err != nil {
		return nil, d.bad(err)
	}
	if c == '}' {
		return d.items, nil
	}
	for {
		if c != '"' {
			return nil, d.badf("expected an object key")
		}
		isItems, err := d.readKey()
		if err != nil {
			return nil, err
		}
		if !isItems {
			return nil, d.badf("unknown field in ingest body")
		}
		if c, err = d.nextNonSpace(); err != nil {
			return nil, d.bad(err)
		}
		if c != ':' {
			return nil, d.badf("expected ':' after object key")
		}
		if c, err = d.nextNonSpace(); err != nil {
			return nil, d.bad(err)
		}
		switch c {
		case 'n':
			// null leaves the field untouched, like encoding/json.
			if err := d.expect("ull"); err != nil {
				return nil, err
			}
		case '[':
			if err := d.readArray(); err != nil {
				return nil, err
			}
		default:
			return nil, d.badf("items must be an array of integers")
		}
		if c, err = d.nextNonSpace(); err != nil {
			return nil, d.bad(err)
		}
		if c == '}' {
			return d.items, nil
		}
		if c != ',' {
			return nil, d.badf("expected ',' or '}' in object")
		}
		if c, err = d.nextNonSpace(); err != nil {
			return nil, d.bad(err)
		}
	}
}

// readKey consumes an object key (opening quote already read) and
// reports whether it is exactly "items". Escaped keys are rejected —
// the only accepted field name needs none.
func (d *itemsDecoder) readKey() (bool, error) {
	const want = "items"
	n := 0
	match := true
	for {
		c, err := d.readByte()
		if err != nil {
			return false, d.bad(err)
		}
		switch {
		case c == '"':
			return match && n == len(want), nil
		case c == '\\':
			return false, d.badf("escaped object keys are not supported")
		}
		if match {
			match = n < len(want) && c == want[n]
		}
		n++
	}
}

// readArray parses the items array (opening bracket already read) into
// the arena. A repeated "items" key replaces the earlier value —
// encoding/json's last-wins semantics — via the reset here.
//
//ecsort:hotpath
func (d *itemsDecoder) readArray() error {
	d.items = d.items[:0]
	c, err := d.nextNonSpace()
	if err != nil {
		return d.bad(err)
	}
	if c == ']' {
		return nil
	}
	for {
		v, err := d.readInt(c)
		if err != nil {
			return err
		}
		d.items = append(d.items, v)
		if c, err = d.nextNonSpace(); err != nil {
			return d.bad(err)
		}
		if c == ']' {
			return nil
		}
		if c != ',' {
			return d.badf("expected ',' or ']' in items array")
		}
		if c, err = d.nextNonSpace(); err != nil {
			return d.bad(err)
		}
	}
}

// readInt parses one JSON integer whose first byte is c: an optional
// minus, digits with no leading zero, and none of the float syntax
// ('.', 'e') — ingest elements are indexes, a fraction is a client
// bug.
//
//ecsort:hotpath
func (d *itemsDecoder) readInt(c byte) (int, error) {
	neg := false
	if c == '-' {
		neg = true
		var err error
		if c, err = d.readByte(); err != nil {
			return 0, d.bad(err)
		}
	}
	if c < '0' || c > '9' {
		return 0, d.badf("items must be an array of integers")
	}
	v := int64(c - '0')
	first := c
	for {
		nc, err := d.readByte()
		if err != nil {
			if err == io.EOF {
				break // the missing ']' surfaces in the caller
			}
			return 0, d.bad(err)
		}
		if nc >= '0' && nc <= '9' {
			if first == '0' {
				return 0, d.badf("invalid number (leading zero)")
			}
			dig := int64(nc - '0')
			if v > (math.MaxInt64-dig)/10 {
				return 0, d.badf("number out of range")
			}
			v = v*10 + dig
			continue
		}
		if nc == '.' || nc == 'e' || nc == 'E' {
			return 0, d.badf("items must be integers, found a non-integer number")
		}
		d.unread()
		break
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		// Unreachable on 64-bit; keeps 32-bit builds honest.
		return 0, d.badf("number out of range")
	}
	return int(v), nil
}
