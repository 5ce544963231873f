package core

import (
	"encoding/hex"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"strconv"
	"testing"

	"rbay/internal/wire"
)

// FuzzWireMessage feeds arbitrary bytes to the tagged-value decoder with
// every Pastry, Scribe and core message registered, seeded with the bytes
// every registered tag is pinned to. Any input must decode without
// panicking, and whatever decodes must re-encode to bytes that decode to
// an equal value.
func FuzzWireMessage(f *testing.F) {
	RegisterWire()
	tags := map[byte]bool{}
	for _, file := range []string{"wire_test.go", "../pastry/wire_test.go", "../scribe/wire_test.go"} {
		for _, b := range pinnedBytes(f, file) {
			tags[b[0]] = true
			f.Add(b)
		}
	}
	// Pastry 12, Scribe 13, core 16: a new message needs a pin.
	if len(tags) != 41 {
		f.Fatalf("the pins cover %d registered tags, want 41", len(tags))
	}
	// And what an older peer still sends under the retired tags 79-80:
	// refused whole (TestRetiredTagsDecodeToError), its mutations fuzzed.
	for _, h := range retiredPayloads {
		b, _ := hex.DecodeString(h)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := wire.Unmarshal(data)
		if err != nil {
			return
		}
		b, err := wire.Marshal(v)
		if err != nil {
			t.Fatalf("re-encode of decoded %#v: %v", v, err)
		}
		v2, err := wire.Unmarshal(b)
		if err != nil {
			t.Fatalf("re-decode of %#v: %v", v, err)
		}
		if !sameValue(reflect.ValueOf(v), reflect.ValueOf(v2)) {
			t.Fatalf("round trip changed the value:\n  %#v\n  %#v", v, v2)
		}
	})
}

// pinnedBytes returns the pinned encodings in a package's pin test: every
// hex string literal in its TestWireBytesPinned.
func pinnedBytes(tb testing.TB, file string) [][]byte {
	tb.Helper()
	af, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, decl := range af.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "TestWireBytesPinned" {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, _ := strconv.Unquote(lit.Value)
				if b, err := hex.DecodeString(s); err == nil && len(b) > 0 {
					out = append(out, b)
				}
			}
			return true
		})
	}
	if len(out) == 0 {
		tb.Fatalf("%s: no pinned bytes", file)
	}
	return out
}

// sameValue is reflect.DeepEqual, except that NaN equals NaN: a decoded
// float keeps its bits, so a NaN that went in comes back.
func sameValue(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || math.IsNaN(x) && math.IsNaN(y)
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if !sameValue(a.MapIndex(k), b.MapIndex(k)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	}
	return false
}
