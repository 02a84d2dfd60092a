// Package segment implements Pinot's columnar segment format: fixed-schema
// record collections with dictionary encoding, bit-packed forward indexes,
// bitmap inverted indexes, sorted-column run indexes and per-column
// statistics, in both immutable (built/loaded) and mutable (realtime
// consuming) forms.
package segment

import (
	"encoding/json"
	"fmt"
)

// DataType is the declared type of a column. Int/Long canonicalize to int64,
// Float/Double to float64 at runtime; the declared type is preserved in
// metadata for storage-width decisions and schema fidelity.
type DataType uint8

// Supported column data types.
const (
	TypeInt DataType = iota
	TypeLong
	TypeFloat
	TypeDouble
	TypeString
	TypeBoolean
)

var dataTypeNames = [...]string{"INT", "LONG", "FLOAT", "DOUBLE", "STRING", "BOOLEAN"}

func (t DataType) String() string {
	if int(t) < len(dataTypeNames) {
		return dataTypeNames[t]
	}
	return fmt.Sprintf("DataType(%d)", uint8(t))
}

// ParseDataType converts a type name (as stored in metadata JSON) back to a
// DataType.
func ParseDataType(s string) (DataType, error) {
	for i, n := range dataTypeNames {
		if n == s {
			return DataType(i), nil
		}
	}
	return 0, fmt.Errorf("segment: unknown data type %q", s)
}

// Numeric reports whether the type canonicalizes to int64 or float64.
func (t DataType) Numeric() bool {
	switch t {
	case TypeInt, TypeLong, TypeFloat, TypeDouble:
		return true
	}
	return false
}

// Integral reports whether the type canonicalizes to int64.
func (t DataType) Integral() bool { return t == TypeInt || t == TypeLong }

// MarshalJSON implements json.Marshaler.
func (t DataType) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// UnmarshalJSON implements json.Unmarshaler.
func (t *DataType) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseDataType(s)
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// FieldKind distinguishes dimensions, metrics, and the special time column.
type FieldKind uint8

// Column roles within a table.
const (
	Dimension FieldKind = iota
	Metric
	Time
)

var fieldKindNames = [...]string{"DIMENSION", "METRIC", "TIME"}

func (k FieldKind) String() string {
	if int(k) < len(fieldKindNames) {
		return fieldKindNames[k]
	}
	return fmt.Sprintf("FieldKind(%d)", uint8(k))
}

// MarshalJSON implements json.Marshaler.
func (k FieldKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON implements json.Unmarshaler.
func (k *FieldKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range fieldKindNames {
		if n == s {
			*k = FieldKind(i)
			return nil
		}
	}
	return fmt.Errorf("segment: unknown field kind %q", s)
}

// FieldSpec describes one column of a schema.
type FieldSpec struct {
	Name        string    `json:"name"`
	Type        DataType  `json:"type"`
	Kind        FieldKind `json:"kind"`
	SingleValue bool      `json:"singleValue"`
	// TimeUnit is informational granularity for Time columns, e.g.
	// "DAYS" or "MILLISECONDS".
	TimeUnit string `json:"timeUnit,omitempty"`
}

// Schema is the fixed column layout of a table. Rows added to builders must
// align with the schema's field order.
type Schema struct {
	Name   string      `json:"name"`
	Fields []FieldSpec `json:"fields"`

	index map[string]int
}

// NewSchema validates the field list and returns a Schema. It enforces the
// paper's data model: metrics are numeric single-value columns, at most one
// time column exists and it is a single-value integral dimension-like column.
func NewSchema(name string, fields []FieldSpec) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("segment: schema name must not be empty")
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("segment: schema %q has no fields", name)
	}
	s := &Schema{Name: name, Fields: fields}
	if err := s.buildIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Schema) buildIndex() error {
	s.index = make(map[string]int, len(s.Fields))
	timeCols := 0
	for i, f := range s.Fields {
		if f.Name == "" {
			return fmt.Errorf("segment: schema %q: field %d has empty name", s.Name, i)
		}
		if _, dup := s.index[f.Name]; dup {
			return fmt.Errorf("segment: schema %q: duplicate column %q", s.Name, f.Name)
		}
		s.index[f.Name] = i
		switch f.Kind {
		case Metric:
			if !f.Type.Numeric() {
				return fmt.Errorf("segment: schema %q: metric %q must be numeric", s.Name, f.Name)
			}
			if !f.SingleValue {
				return fmt.Errorf("segment: schema %q: metric %q must be single-value", s.Name, f.Name)
			}
		case Time:
			timeCols++
			if !f.Type.Integral() {
				return fmt.Errorf("segment: schema %q: time column %q must be INT or LONG", s.Name, f.Name)
			}
			if !f.SingleValue {
				return fmt.Errorf("segment: schema %q: time column %q must be single-value", s.Name, f.Name)
			}
		}
	}
	if timeCols > 1 {
		return fmt.Errorf("segment: schema %q has %d time columns, at most 1 allowed", s.Name, timeCols)
	}
	return nil
}

// FieldIndex returns the position of the named column, or -1.
func (s *Schema) FieldIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Field returns the spec of the named column.
func (s *Schema) Field(name string) (FieldSpec, bool) {
	if i, ok := s.index[name]; ok {
		return s.Fields[i], true
	}
	return FieldSpec{}, false
}

// TimeColumn returns the name of the time column, or "" if the schema has
// none.
func (s *Schema) TimeColumn() string {
	for _, f := range s.Fields {
		if f.Kind == Time {
			return f.Name
		}
	}
	return ""
}

// DimensionNames returns the dimension (and time) column names in schema
// order.
func (s *Schema) DimensionNames() []string {
	var out []string
	for _, f := range s.Fields {
		if f.Kind != Metric {
			out = append(out, f.Name)
		}
	}
	return out
}

// WithColumn returns a copy of the schema with one additional column. It is
// the basis for on-the-fly schema evolution: existing segments surface the
// new column with a default value.
func (s *Schema) WithColumn(f FieldSpec) (*Schema, error) {
	fields := append(append([]FieldSpec(nil), s.Fields...), f)
	return NewSchema(s.Name, fields)
}

// MarshalJSON implements json.Marshaler.
func (s *Schema) MarshalJSON() ([]byte, error) {
	type plain struct {
		Name   string      `json:"name"`
		Fields []FieldSpec `json:"fields"`
	}
	return json.Marshal(plain{s.Name, s.Fields})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Schema) UnmarshalJSON(b []byte) error {
	type plain struct {
		Name   string      `json:"name"`
		Fields []FieldSpec `json:"fields"`
	}
	var p plain
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	s.Name, s.Fields = p.Name, p.Fields
	return s.buildIndex()
}

// Row is a record whose values align positionally with a schema's fields.
// Values must be canonical (int64, float64, string, bool) or convertible via
// Canonicalize; multi-value columns take []int64, []float64, []string or
// []bool.
type Row []any

// RowFromMap builds a Row for the schema from a column-name→value map.
// Missing columns take the type's default value.
func (s *Schema) RowFromMap(m map[string]any) (Row, error) {
	row := make(Row, len(s.Fields))
	for i, f := range s.Fields {
		v, ok := m[f.Name]
		if !ok {
			row[i] = DefaultValue(f)
			continue
		}
		cv, err := CanonicalizeField(f, v)
		if err != nil {
			return nil, err
		}
		row[i] = cv
	}
	return row, nil
}

// DefaultValue returns the null-substitute value for a column, used when a
// segment predates a schema-evolution column addition.
func DefaultValue(f FieldSpec) any {
	var base any
	switch {
	case f.Type.Integral():
		base = int64(0)
	case f.Type.Numeric():
		base = float64(0)
	case f.Type == TypeBoolean:
		base = false
	default:
		base = "null"
	}
	if f.SingleValue {
		return base
	}
	switch v := base.(type) {
	case int64:
		return []int64{v}
	case float64:
		return []float64{v}
	case bool:
		return []bool{v}
	default:
		return []string{base.(string)}
	}
}

// Canonicalize converts a loosely typed scalar to the canonical runtime
// representation for the data type: int64, float64, string or bool.
func Canonicalize(t DataType, v any) (any, error) {
	switch t {
	case TypeInt, TypeLong:
		switch x := v.(type) {
		case int64:
			return x, nil
		case int:
			return int64(x), nil
		case int32:
			return int64(x), nil
		case int16:
			return int64(x), nil
		case uint32:
			return int64(x), nil
		case float64:
			if x == float64(int64(x)) {
				return int64(x), nil
			}
		case json.Number:
			if n, err := x.Int64(); err == nil {
				return n, nil
			}
		}
	case TypeFloat, TypeDouble:
		switch x := v.(type) {
		case float64:
			return x, nil
		case float32:
			return float64(x), nil
		case int64:
			return float64(x), nil
		case int:
			return float64(x), nil
		case json.Number:
			if n, err := x.Float64(); err == nil {
				return n, nil
			}
		}
	case TypeString:
		if x, ok := v.(string); ok {
			return x, nil
		}
	case TypeBoolean:
		if x, ok := v.(bool); ok {
			return x, nil
		}
	}
	return nil, fmt.Errorf("segment: cannot convert %T(%v) to %s", v, v, t)
}

// CanonicalizeField converts a scalar or slice to the canonical form for a
// field, handling multi-value columns.
func CanonicalizeField(f FieldSpec, v any) (any, error) {
	if f.SingleValue {
		return Canonicalize(f.Type, v)
	}
	switch xs := v.(type) {
	case []int64:
		return xs, nil
	case []float64:
		return xs, nil
	case []string:
		return xs, nil
	case []bool:
		return xs, nil
	case []any:
		switch {
		case f.Type.Integral():
			out := make([]int64, len(xs))
			for i, x := range xs {
				cv, err := Canonicalize(f.Type, x)
				if err != nil {
					return nil, err
				}
				out[i] = cv.(int64)
			}
			return out, nil
		case f.Type.Numeric():
			out := make([]float64, len(xs))
			for i, x := range xs {
				cv, err := Canonicalize(f.Type, x)
				if err != nil {
					return nil, err
				}
				out[i] = cv.(float64)
			}
			return out, nil
		case f.Type == TypeBoolean:
			out := make([]bool, len(xs))
			for i, x := range xs {
				cv, err := Canonicalize(f.Type, x)
				if err != nil {
					return nil, err
				}
				out[i] = cv.(bool)
			}
			return out, nil
		default:
			out := make([]string, len(xs))
			for i, x := range xs {
				cv, err := Canonicalize(f.Type, x)
				if err != nil {
					return nil, err
				}
				out[i] = cv.(string)
			}
			return out, nil
		}
	}
	// A bare scalar for a multi-value column becomes a one-element array.
	cv, err := Canonicalize(f.Type, v)
	if err != nil {
		return nil, err
	}
	switch x := cv.(type) {
	case int64:
		return []int64{x}, nil
	case float64:
		return []float64{x}, nil
	case bool:
		return []bool{x}, nil
	default:
		return []string{cv.(string)}, nil
	}
}

// CompareValues orders two canonical values of the same type. Booleans order
// false < true.
func CompareValues(a, b any) int {
	switch x := a.(type) {
	case int64:
		y := b.(int64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case float64:
		y := b.(float64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case string:
		y := b.(string)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case bool:
		y := b.(bool)
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("segment: CompareValues on unsupported type %T", a))
}
