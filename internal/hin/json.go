package hin

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/why-not-xai/emigre/internal/fmath"
)

// The JSON graph file is one object with a node list and an edge list,
// using type names rather than numeric type IDs so the file is
// self-describing:
//
//	{"nodes": [{"id": 0, "type": "user", "label": "Paul"}, ...],
//	 "edges": [{"from": 0, "to": 1, "type": "rated", "weight": 0.8}, ...]}
//
// WriteJSON and ReadJSON are a hand-written codec for exactly this
// schema. They keep the behaviour of encoding/json over the structs
//
//	struct{ Nodes []struct{ ID int; Type string; Label string `json:",omitempty"` }
//	        Edges []struct{ From, To int; Type string; Weight float64 } }
//
// byte for byte on output (Encoder.SetIndent("", " ")) and value for
// value on input, without reflection and without holding the file in
// memory. The package tests keep encoding/json as their oracle.

// WriteJSON serializes the graph as a single JSON document with explicit
// node and edge lists (nodes in ID order, each node's out-edges in
// adjacency order), indented by one space per level and ending in a
// newline. Strings are escaped HTML-safe and weights formatted as
// encoding/json formats a float64.
func (g *Graph) WriteJSON(w io.Writer) error {
	var b []byte
	// flush hands b to w once it holds at least min bytes.
	flush := func(min int) error {
		if len(b) < min {
			return nil
		}
		_, err := w.Write(b)
		b = b[:0]
		return err
	}
	const chunk = 32 << 10
	b = append(b, "{\n \"nodes\": ["...)
	for v := 0; v < g.NumNodes(); v++ {
		if v > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n  {\n   \"id\": "...)
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ",\n   \"type\": "...)
		b = appendJSONString(b, g.types.NodeTypeName(g.ntype[v]))
		if l := g.labels[v]; l != "" {
			b = append(b, ",\n   \"label\": "...)
			b = appendJSONString(b, l)
		}
		b = append(b, "\n  }"...)
		if err := flush(chunk); err != nil {
			return err
		}
	}
	if g.NumNodes() > 0 {
		b = append(b, "\n "...)
	}
	b = append(b, "],\n \"edges\": ["...)
	first := true
	for v := 0; v < g.NumNodes(); v++ {
		for _, h := range g.out[v] {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, "\n  {\n   \"from\": "...)
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, ",\n   \"to\": "...)
			b = strconv.AppendInt(b, int64(h.Node), 10)
			b = append(b, ",\n   \"type\": "...)
			b = appendJSONString(b, g.types.EdgeTypeName(h.Type))
			b = append(b, ",\n   \"weight\": "...)
			b = appendJSONFloat(b, h.Weight)
			b = append(b, "\n  }"...)
		}
		if err := flush(chunk); err != nil {
			return err
		}
	}
	if g.NumEdges() > 0 {
		b = append(b, "\n "...)
	}
	b = append(b, "]\n}\n"...)
	return flush(0)
}

// htmlSafe marks the ASCII bytes a JSON string carries unescaped: every
// printable byte but the quote, the backslash and the HTML specials
// <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendJSONString appends s as a quoted JSON string, escaped as
// encoding/json escapes it by default: the short escapes \" \\ \b \f
// \n \r \t, \u00XX for the other control bytes and for <, > and &,
// \ufffd for each byte of invalid UTF-8, and \u2028 / \u2029 for the
// two line-separator runes.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends a finite f in encoding/json's float64 form
// (ES6 number-to-string): shortest round-trip digits, plain notation
// for magnitudes in [1e-6, 1e21), exponent notation without a padded
// exponent otherwise.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); !fmath.Eq(abs, 0) && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// ReadJSON parses a graph previously written by WriteJSON. Node IDs in
// the file must be dense and start at 0.
//
// It reads the stream once through a fixed window, adds each node as
// it is read, and adds the edges once the document is complete. It
// accepts what encoding/json would decode into the file's structs:
// insignificant whitespace and key order are free, unknown keys are
// skipped, a null member, node or edge keeps its zero value, a bare
// null document is the empty graph, and nothing after the document is
// read. Unlike encoding/json it rejects a repeated key and a key that
// matches a field name only case-insensitively, both of which
// encoding/json resolves silently.
func ReadJSON(r io.Reader) (*Graph, error) {
	d := &jsonDecoder{r: r, buf: make([]byte, 0, 64<<10), g: NewGraph()}
	if err := d.document(); err != nil {
		return nil, err
	}
	d.g.reserve(d.edges)
	for _, block := range d.edges {
		for _, e := range block {
			if err := d.g.AddEdge(NodeID(e.from), NodeID(e.to), e.typ, e.weight); err != nil {
				return nil, fmt.Errorf("hin: edge (%d,%d): %w", e.from, e.to, err)
			}
		}
	}
	if err := d.g.Validate(); err != nil {
		return nil, err
	}
	return d.g, nil
}

// maxJSONDepth is encoding/json's nesting limit: a document with more
// objects and arrays open at once is rejected.
const maxJSONDepth = 10000

// jsonEdge is a parsed edge.
type jsonEdge struct {
	from, to int
	typ      EdgeTypeID
	weight   float64
}

// jsonDecoder reads one graph document. buf is a window over the
// stream: buf[pos:] is unread, and a refill drops what precedes the
// token being read.
type jsonDecoder struct {
	r    io.Reader
	buf  []byte
	pos  int
	off  int64 // stream offset of buf[0]
	rerr error // the reader's sticky error, io.EOF at the end

	unq        []byte // unquoted string scratch
	key        []byte // the current object key
	typ, label []byte // the current node's or edge's strings
	g          *Graph
	// edges are added once the document is complete, in file order, as
	// decoding the whole file first would add them: the node list may
	// come after them, and their count sizes the adjacency lists. The
	// list grows by whole blocks (see appendEdge) and is never copied.
	edges [][]jsonEdge
}

// maxEdgeBlock caps the length of a block of the decoder's edge list.
const maxEdgeBlock = 1 << 12

// appendEdge appends e to the edge list, starting a new block, twice
// as long as the last up to maxEdgeBlock, when the last one is full.
func (d *jsonDecoder) appendEdge(e jsonEdge) {
	n := len(d.edges)
	if n == 0 || len(d.edges[n-1]) == cap(d.edges[n-1]) {
		size := 64
		if n > 0 {
			size = min(2*cap(d.edges[n-1]), maxEdgeBlock)
		}
		d.edges = append(d.edges, make([]jsonEdge, 0, size))
		n++
	}
	d.edges[n-1] = append(d.edges[n-1], e)
}

// fill drops buf[:keep], shifting pos, and reads more of the stream.
// It reports whether new bytes arrived.
func (d *jsonDecoder) fill(keep int) bool {
	if keep > 0 {
		n := copy(d.buf, d.buf[keep:])
		d.buf = d.buf[:n]
		d.off += int64(keep)
		d.pos -= keep
	}
	if d.rerr != nil {
		return false
	}
	if len(d.buf) == cap(d.buf) {
		// Only a token longer than the window gets here.
		d.buf = append(d.buf, 0)[:len(d.buf)]
	}
	for range 100 {
		n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if err != nil {
			d.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	d.rerr = io.ErrNoProgress
	return false
}

func (d *jsonDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("hin: decoding graph JSON: %s at offset %d", fmt.Sprintf(format, args...), d.off+int64(d.pos))
}

// eof is the error for a document that ends early, or for the reader's
// own failure.
func (d *jsonDecoder) eof() error {
	if d.rerr != nil && !errors.Is(d.rerr, io.EOF) {
		return fmt.Errorf("hin: decoding graph JSON: %w", d.rerr)
	}
	return d.errorf("unexpected end of JSON input")
}

// next skips whitespace and returns the next byte without consuming
// it; ok is false at the end of the stream.
func (d *jsonDecoder) next() (c byte, ok bool) {
	for {
		for ; d.pos < len(d.buf); d.pos++ {
			if c := d.buf[d.pos]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return c, true
			}
		}
		if !d.fill(d.pos) {
			return 0, false
		}
	}
}

// expect consumes the next non-space byte, which must be c.
func (d *jsonDecoder) expect(c byte) error {
	got, ok := d.next()
	if !ok {
		return d.eof()
	}
	if got != c {
		return d.errorf("invalid character %q, want %q", got, c)
	}
	d.pos++
	return nil
}

// literal consumes the keyword word (true, false or null), whose first
// byte is next.
func (d *jsonDecoder) literal(word string) error {
	for len(d.buf)-d.pos < len(word) {
		if !d.fill(d.pos) {
			return d.eof()
		}
	}
	if string(d.buf[d.pos:d.pos+len(word)]) != word {
		return d.errorf("invalid literal, want %s", word)
	}
	d.pos += len(word)
	return nil
}

// null consumes a null if one comes next.
func (d *jsonDecoder) null() (bool, error) {
	c, ok := d.next()
	if !ok {
		return false, d.eof()
	}
	if c != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// str consumes a string and returns its unquoted bytes, valid until the
// next read. Escapes and invalid UTF-8 decode as encoding/json decodes
// them: a lone or reversed surrogate escape and each invalid byte
// become U+FFFD.
func (d *jsonDecoder) str() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start, esc, ascii := d.pos, false, true
	// more refills the window, keeping the string read so far.
	more := func(i *int) bool {
		ok := d.fill(start)
		*i -= start
		start = 0
		return ok
	}
	for i := d.pos; ; i++ {
		if i == len(d.buf) && !more(&i) {
			return nil, d.eof()
		}
		c := d.buf[i]
		if c >= ' ' && c != '"' && c != '\\' {
			if c >= utf8.RuneSelf {
				ascii = false
			}
			continue
		}
		switch {
		case c == '"':
			d.pos = i + 1
			raw := d.buf[start:i]
			if !esc && (ascii || utf8.Valid(raw)) {
				return raw, nil
			}
			return d.unquote(raw), nil
		case c == '\\':
			for i+6 > len(d.buf) && more(&i) {
			}
			if i+1 == len(d.buf) {
				return nil, d.eof()
			}
			esc = true
			switch d.buf[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if i+6 > len(d.buf) {
					return nil, d.eof()
				}
				if hex4(d.buf[i+2:i+6]) < 0 {
					d.pos = i
					return nil, d.errorf("invalid \\u escape in string")
				}
				i += 5
			default:
				d.pos = i
				return nil, d.errorf("invalid escape %q in string", d.buf[i+1])
			}
		default:
			d.pos = i
			return nil, d.errorf("invalid control character %q in string", c)
		}
	}
}

// hex4 decodes the four hex digits of a \u escape, -1 if they are not.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote decodes the body of a string with escapes or invalid UTF-8,
// whose escapes str has checked.
func (d *jsonDecoder) unquote(s []byte) []byte {
	b := d.unq[:0]
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch c = s[r+1]; c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			case 'u':
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r+2:])); dec != utf8.RuneError {
							r += 6
							b = utf8.AppendRune(b, dec)
							continue
						}
					}
					rr = utf8.RuneError
				}
				b = utf8.AppendRune(b, rr)
				continue
			}
			b = append(b, c)
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	d.unq = b
	return b
}

// number consumes a number, whose first byte is next, and returns its
// text, valid until the next read.
func (d *jsonDecoder) number() ([]byte, error) {
	start, i := d.pos, d.pos
	for {
		if i == len(d.buf) {
			ok := d.fill(start)
			i -= start
			start = 0
			if !ok {
				break
			}
		}
		if c := d.buf[i]; !('0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
			break
		}
		i++
	}
	tok := d.buf[start:i]
	if !validNumber(tok) {
		return nil, d.errorf("invalid number %q", tok)
	}
	d.pos = i
	return tok, nil
}

// validNumber reports whether s is a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(s []byte) bool {
	digits := func(i int) int {
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i == len(s):
		return false
	case s[i] == '0':
		i++
	case '1' <= s[i] && s[i] <= '9':
		i = digits(i + 1)
	default:
		return false
	}
	if i < len(s) && s[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return false
		}
		i = j
	}
	return i == len(s)
}

// intValue consumes an int member: a number without fraction or
// exponent that fits an int, or null for 0.
func (d *jsonDecoder) intValue(field string) (int, error) {
	switch c, ok := d.next(); {
	case !ok:
		return 0, d.eof()
	case c == 'n':
		return 0, d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		tok, err := d.number()
		if err != nil {
			return 0, err
		}
		n, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil || int64(int(n)) != n {
			return 0, d.errorf("cannot use number %s as the int %q", tok, field)
		}
		return int(n), nil
	default:
		return 0, d.errorf("invalid character %q for the int %q", c, field)
	}
}

// floatValue consumes a float64 member, or null for 0.
func (d *jsonDecoder) floatValue(field string) (float64, error) {
	switch c, ok := d.next(); {
	case !ok:
		return 0, d.eof()
	case c == 'n':
		return 0, d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		tok, err := d.number()
		if err != nil {
			return 0, err
		}
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return 0, d.errorf("cannot use number %s as the float64 %q", tok, field)
		}
		return f, nil
	default:
		return 0, d.errorf("invalid character %q for the float64 %q", c, field)
	}
}

// strValue consumes a string member into dst[:0], or null for "".
func (d *jsonDecoder) strValue(dst []byte, field string) ([]byte, error) {
	switch c, ok := d.next(); {
	case !ok:
		return dst[:0], d.eof()
	case c == 'n':
		return dst[:0], d.literal("null")
	case c == '"':
		s, err := d.str()
		return append(dst[:0], s...), err
	default:
		return dst[:0], d.errorf("invalid character %q for the string %q", c, field)
	}
}

// skip consumes any value, checking its syntax; depth is the number of
// objects and arrays open around it.
func (d *jsonDecoder) skip(depth int) error {
	c, ok := d.next()
	if !ok {
		return d.eof()
	}
	switch {
	case c == '{':
		return d.object(depth+1, func(_ []byte, depth int) error { return d.skip(depth) })
	case c == '[':
		return d.array(depth+1, d.skip)
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.errorf("invalid character %q looking for beginning of value", c)
}

// object consumes an object that opens the depth-th level of nesting,
// calling member with each key once its colon is read; member consumes
// the value, and the key is valid only until it reads on.
func (d *jsonDecoder) object(depth int, member func(key []byte, depth int) error) error {
	if depth > maxJSONDepth {
		return d.errorf("exceeded max depth")
	}
	if err := d.expect('{'); err != nil {
		return err
	}
	if c, ok := d.next(); !ok {
		return d.eof()
	} else if c == '}' {
		d.pos++
		return nil
	}
	for {
		key, err := d.str()
		if err != nil {
			return err
		}
		// The colon usually follows the key at once. Reading on to find
		// it may move the window under the key: then keep a copy.
		if d.pos < len(d.buf) && d.buf[d.pos] == ':' {
			d.pos++
		} else {
			d.key = append(d.key[:0], key...)
			key = d.key
			if err := d.expect(':'); err != nil {
				return err
			}
		}
		if err := member(key, depth); err != nil {
			return err
		}
		c, ok := d.next()
		if !ok {
			return d.eof()
		}
		switch c {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.errorf("invalid character %q after object key:value pair", c)
		}
	}
}

// array consumes an array that opens the depth-th level of nesting,
// calling elem to consume each element.
func (d *jsonDecoder) array(depth int, elem func(depth int) error) error {
	if depth > maxJSONDepth {
		return d.errorf("exceeded max depth")
	}
	if err := d.expect('['); err != nil {
		return err
	}
	if c, ok := d.next(); !ok {
		return d.eof()
	} else if c == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(depth); err != nil {
			return err
		}
		c, ok := d.next()
		if !ok {
			return d.eof()
		}
		switch c {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.errorf("invalid character %q after array element", c)
		}
	}
}

// field resolves an object key against a struct's field names: it
// returns the field's index, or -1 for a key the struct lacks. seen
// marks the fields already set; a repeat, and a key that matches a
// field only case-insensitively, are errors.
func (d *jsonDecoder) field(names []string, seen *uint8, key []byte) (int, error) {
	for i, name := range names {
		if string(key) == name {
			if *seen&(1<<i) != 0 {
				return 0, d.errorf("repeated key %q", key)
			}
			*seen |= 1 << i
			return i, nil
		}
	}
	for _, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return 0, d.errorf("key %q matches the field %q in case only", key, name)
		}
	}
	return -1, nil
}

// list consumes a nodes or edges member: an array of elements or null.
func (d *jsonDecoder) list(depth int, elem func(depth int) error) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	return d.array(depth+1, elem)
}

// document reads the top-level value: the graph object, or null.
func (d *jsonDecoder) document() error {
	c, ok := d.next()
	if !ok {
		return d.eof()
	}
	switch c {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.errorf("invalid character %q looking for the graph object", c)
	}
	names := []string{"nodes", "edges"}
	var seen uint8
	return d.object(1, func(key []byte, depth int) error {
		switch i, err := d.field(names, &seen, key); {
		case err != nil:
			return err
		case i == 0:
			return d.list(depth, d.node)
		case i == 1:
			return d.list(depth, d.edge)
		default:
			return d.skip(depth)
		}
	})
}

// node reads one node object, or null for the zero node, and adds it.
func (d *jsonDecoder) node(depth int) error {
	names := []string{"id", "type", "label"}
	id := 0
	d.typ, d.label = d.typ[:0], d.label[:0]
	if null, err := d.null(); err != nil {
		return err
	} else if !null {
		var seen uint8
		err := d.object(depth+1, func(key []byte, depth int) error {
			switch i, err := d.field(names, &seen, key); {
			case err != nil:
				return err
			case i == 0:
				id, err = d.intValue(names[i])
				return err
			case i == 1:
				d.typ, err = d.strValue(d.typ, names[i])
				return err
			case i == 2:
				d.label, err = d.strValue(d.label, names[i])
				return err
			default:
				return d.skip(depth)
			}
		})
		if err != nil {
			return err
		}
	}
	g := d.g
	if id != g.NumNodes() {
		return fmt.Errorf("hin: node ids must be dense, got %d at position %d", id, g.NumNodes())
	}
	// AddNode panics on duplicate labels; validate file input here.
	if len(d.label) > 0 {
		if _, exists := g.byName[string(d.label)]; exists {
			return fmt.Errorf("hin: node %d: duplicate label %q", id, d.label)
		}
	}
	t, ok := g.types.nodeIDs[string(d.typ)]
	if !ok {
		t = g.types.NodeType(string(d.typ))
	}
	g.AddNode(t, string(d.label))
	return nil
}

// edge reads one edge object, or null for the zero edge, for ReadJSON
// to add. Edge types are registered in file order, as adding the edges
// does.
func (d *jsonDecoder) edge(depth int) error {
	names := []string{"from", "to", "type", "weight"}
	var e jsonEdge
	d.typ = d.typ[:0]
	if null, err := d.null(); err != nil {
		return err
	} else if !null {
		var seen uint8
		err := d.object(depth+1, func(key []byte, depth int) error {
			switch i, err := d.field(names, &seen, key); {
			case err != nil:
				return err
			case i == 0:
				e.from, err = d.intValue(names[i])
				return err
			case i == 1:
				e.to, err = d.intValue(names[i])
				return err
			case i == 2:
				d.typ, err = d.strValue(d.typ, names[i])
				return err
			case i == 3:
				e.weight, err = d.floatValue(names[i])
				return err
			default:
				return d.skip(depth)
			}
		})
		if err != nil {
			return err
		}
	}
	reg := d.g.types
	t, ok := reg.edgeIDs[string(d.typ)]
	if !ok {
		t = reg.EdgeType(string(d.typ))
	}
	e.typ = t
	d.appendEdge(e)
	return nil
}

// reserve sizes the adjacency lists of the graph for the edges about to
// be added. Edges with an endpoint out of range are left to AddEdge to
// reject.
func (g *Graph) reserve(edges [][]jsonEdge) {
	n := len(g.out)
	outDeg, inDeg := make([]int, n), make([]int, n)
	for _, block := range edges {
		for _, e := range block {
			if from, to := NodeID(e.from), NodeID(e.to); g.valid(from) && g.valid(to) {
				outDeg[from]++
				inDeg[to]++
			}
		}
	}
	g.Reserve(outDeg, inDeg)
}
