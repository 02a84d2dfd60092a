package server

import (
	"bytes"
	"errors"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"pinot/internal/segment"
)

// eventDecoder reads one stream event — a JSON object of field → value —
// in a single pass over the message bytes, straight into a typed row: field
// names are matched against the schema as they are met, values parsed as the
// field's type, and everything else is checked for syntax and skipped. No
// generic tree of the event is built.
//
// It accepts and rejects what decoding into a map with encoding/json
// (UseNumber) and canonicalizing through Schema.RowFromMap would, and yields
// the same row: the first JSON value of the message is the event and bytes
// after it are ignored; null is an event with no fields; a repeated key keeps
// its last value; a missing field takes its default; an integral field takes
// only an integer literal in range (not 1.0 or 1e3); a multi-value field
// takes an array of scalars or one bare scalar; invalid UTF-8 in a string
// becomes U+FFFD; nesting deeper than 10000 is refused.
type eventDecoder struct {
	fields  map[string]int // event field name → position in the row
	specs   []segment.FieldSpec
	row     *segment.TypedRow
	bad     []bool // per field: its last occurrence did not fit the type
	scratch []byte // an unescaped string
}

var (
	errEventSyntax = errors.New("server: event is not a JSON object")
	errEventType   = errors.New("server: event field does not fit its column type")
)

// maxEventDepth is encoding/json's nesting limit.
const maxEventDepth = 10000

// newEventDecoder decodes events carrying the fields of schema (a prefix of
// the row's schema: derived columns follow it) into row.
func newEventDecoder(schema *segment.Schema, row *segment.TypedRow) *eventDecoder {
	d := &eventDecoder{fields: make(map[string]int, len(schema.Fields)), specs: schema.Fields, row: row, bad: make([]bool, len(schema.Fields))}
	for i, f := range schema.Fields {
		d.fields[f.Name] = i
	}
	return d
}

// decode fills the row from one message. The row holds the event only when
// the error is nil.
func (d *eventDecoder) decode(b []byte) error {
	d.row.Reset()
	clear(d.bad)
	i := skipSpace(b, 0)
	if bytes.HasPrefix(b[i:], []byte("null")) {
		return nil
	}
	if i == len(b) || b[i] != '{' {
		return errEventSyntax
	}
	if _, err := d.members(b, i, 1, d.readField); err != nil {
		return err
	}
	for _, bad := range d.bad {
		if bad {
			return errEventType
		}
	}
	return nil
}

// members walks the object or array that opens at b[i], the depth-th
// container around its members, calling elem at each member's value (with
// its key, in an object). It returns the position after the closing bracket.
func (d *eventDecoder) members(b []byte, i, depth int, elem func(b, key []byte, i int) (int, error)) (int, error) {
	if depth > maxEventDepth {
		return 0, errEventSyntax
	}
	open := b[i]
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == open+2 { // ']' and '}' sit two above their openers
		return i + 1, nil
	}
	for {
		var key []byte
		var err error
		if open == '{' {
			if key, i, err = d.readString(b, i); err != nil {
				return 0, err
			}
			if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
				return 0, errEventSyntax
			}
			i = skipSpace(b, i+1)
		}
		if i, err = elem(b, key, i); err != nil {
			return 0, err
		}
		i = skipSpace(b, i)
		switch {
		case i == len(b):
			return 0, errEventSyntax
		case b[i] == open+2:
			return i + 1, nil
		case b[i] != ',':
			return 0, errEventSyntax
		}
		i = skipSpace(b, i+1)
	}
}

// readField parses one member of the event: a known field's value replaces
// what an earlier occurrence of the key left in the row, anything else is
// checked for syntax and skipped.
func (d *eventDecoder) readField(b, key []byte, i int) (int, error) {
	f, known := d.fields[string(key)]
	if !known {
		return d.skipValue(b, i, 1)
	}
	d.row.Clear(f)
	d.bad[f] = false
	if !d.specs[f].SingleValue && i < len(b) && b[i] == '[' {
		return d.members(b, i, 2, func(b, _ []byte, i int) (int, error) { return d.readScalar(b, i, f, 2) })
	}
	return d.readScalar(b, i, f, 1)
}

// readScalar parses one value of field f's type at b[i], inside depth
// containers, and appends it to the row. A value of the wrong shape marks the
// field bad and is still checked for syntax.
func (d *eventDecoder) readScalar(b []byte, i, f, depth int) (int, error) {
	if i == len(b) {
		return 0, errEventSyntax
	}
	typ := d.specs[f].Type
	switch c := b[i]; {
	case c == '"':
		s, end, err := d.readString(b, i)
		if err != nil {
			return 0, err
		}
		if typ == segment.TypeString {
			d.row.AppendBytes(f, s)
		} else {
			d.bad[f] = true
		}
		return end, nil
	case c == '-' || (c >= '0' && c <= '9'):
		end, integer, err := scanNumber(b, i)
		if err != nil {
			return 0, err
		}
		// strconv does not keep its argument, so the conversion of a short
		// literal stays on the stack.
		switch {
		case typ.Integral():
			v, err := strconv.ParseInt(string(b[i:end]), 10, 64)
			d.bad[f] = d.bad[f] || !integer || err != nil
			d.row.AppendLong(f, v)
		case typ.Numeric():
			v, err := strconv.ParseFloat(string(b[i:end]), 64)
			d.bad[f] = d.bad[f] || err != nil
			d.row.AppendDouble(f, v)
		default:
			d.bad[f] = true
		}
		return end, nil
	case (c == 't' || c == 'f') && typ == segment.TypeBoolean:
		d.row.AppendBool(f, c == 't')
		return scanLiteral(b, i)
	}
	// A literal, object or array where the field's scalar belongs, or junk.
	d.bad[f] = true
	return d.skipValue(b, i, depth)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// skipValue checks the syntax of the value at b[i], inside depth containers,
// and returns the position after it.
func (d *eventDecoder) skipValue(b []byte, i, depth int) (int, error) {
	if i == len(b) {
		return 0, errEventSyntax
	}
	var err error
	switch c := b[i]; {
	case c == '{' || c == '[':
		return d.members(b, i, depth+1, func(b, _ []byte, i int) (int, error) { return d.skipValue(b, i, depth+1) })
	case c == '"':
		_, i, err = d.readString(b, i)
	case c == '-' || (c >= '0' && c <= '9'):
		i, _, err = scanNumber(b, i)
	default:
		i, err = scanLiteral(b, i)
	}
	return i, err
}

// scanLiteral passes true, false or null.
func scanLiteral(b []byte, i int) (int, error) {
	for _, lit := range [...]string{"true", "false", "null"} {
		if len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit {
			return i + len(lit), nil
		}
	}
	return 0, errEventSyntax
}

// scanNumber passes a JSON number and reports whether it is an integer
// literal (no fraction, no exponent).
func scanNumber(b []byte, i int) (end int, integer bool, err error) {
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return 0, false, errEventSyntax
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if integer = false; !digits() {
			return 0, false, errEventSyntax
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if integer = false; !digits() {
			return 0, false, errEventSyntax
		}
	}
	return i, integer, nil
}

// readString parses the JSON string at b[i] and returns its value — the
// message's own bytes when they need no unescaping, the decoder's scratch
// otherwise, valid until the next call — and the position after the closing
// quote.
func (d *eventDecoder) readString(b []byte, i int) (s []byte, end int, err error) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, errEventSyntax
	}
	i++
	start, plain := i, true
	for {
		if i == len(b) {
			return nil, 0, errEventSyntax
		}
		c := b[i]
		switch {
		case c == '"':
			if plain {
				return b[start:i], i + 1, nil
			}
			return d.unescape(b[start:i]), i + 1, nil
		case c < ' ':
			return nil, 0, errEventSyntax
		case c == '\\':
			plain = false
			i++
			if i == len(b) {
				return nil, 0, errEventSyntax
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if hex4(b, i+1) < 0 {
					return nil, 0, errEventSyntax
				}
				i += 4
			default:
				return nil, 0, errEventSyntax
			}
			i++
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			i += size
		}
	}
}

// hex4 reads four hex digits at b[i], or returns -1.
func hex4(b []byte, i int) rune {
	if len(b)-i < 4 {
		return -1
	}
	var r rune
	for _, c := range b[i : i+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape resolves the escapes of a string body readString has validated,
// as encoding/json does: a surrogate pair joins into one rune, a lone
// surrogate and every invalid UTF-8 byte become U+FFFD.
func (d *eventDecoder) unescape(s []byte) []byte {
	out := d.scratch[:0]
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			i++
			switch s[i] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(s, i+1)
				i += 4
				if utf16.IsSurrogate(r) {
					pair := unicode.ReplacementChar
					if len(s)-i > 2 && s[i+1] == '\\' && s[i+2] == 'u' {
						pair = utf16.DecodeRune(r, hex4(s, i+3))
					}
					if pair != unicode.ReplacementChar {
						i += 6
					}
					r = pair
				}
				out = utf8.AppendRune(out, r)
			default: // " \ /
				out = append(out, s[i])
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	d.scratch = out
	return out
}
