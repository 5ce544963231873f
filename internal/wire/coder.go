package wire

import (
	"rbay/internal/ids"
	"rbay/internal/transport"
)

// Coder walks one field list in either direction. A message writes its
// layout once, as a method that hands each field's address to a Coder;
// over an Encoder the walk appends every field, over a Decoder it fills
// every field. Because both directions run the same list, the encode and
// decode orders cannot drift apart.
//
// Decoding fills a zero value and inherits the Decoder's sticky error:
// after the first bad read every field gets its zero value, so a field
// list needs no checks of its own.
type Coder struct {
	e *Encoder // set when encoding
	d *Decoder // set when decoding
}

// Coder returns the encoder's encoding Coder.
func (e *Encoder) Coder() *Coder {
	e.c.e = e
	return &e.c
}

// Coder returns the decoder's decoding Coder.
func (d *Decoder) Coder() *Coder {
	d.c.d = d
	return &d.c
}

// Encoder returns the encoder the Coder appends to, nil when decoding.
func (c *Coder) Encoder() *Encoder { return c.e }

// Decoder returns the decoder the Coder reads from, nil when encoding.
func (c *Coder) Decoder() *Decoder { return c.d }

// Uvarint walks an unsigned varint.
func (c *Coder) Uvarint(p *uint64) {
	if c.e != nil {
		c.e.Uvarint(*p)
	} else {
		*p = c.d.Uvarint()
	}
}

// Varint walks a zig-zag signed varint.
func (c *Coder) Varint(p *int64) {
	if c.e != nil {
		c.e.Varint(*p)
	} else {
		*p = c.d.Varint()
	}
}

// Int walks an int as a zig-zag signed varint.
func (c *Coder) Int(p *int) {
	if c.e != nil {
		c.e.Varint(int64(*p))
	} else {
		*p = int(c.d.Varint())
	}
}

// Bool walks a bool as one byte.
func (c *Coder) Bool(p *bool) {
	if c.e != nil {
		c.e.Bool(*p)
	} else {
		*p = c.d.Bool()
	}
}

// Float64 walks IEEE 754 bits, little endian.
func (c *Coder) Float64(p *float64) {
	if c.e != nil {
		c.e.Float64(*p)
	} else {
		*p = c.d.Float64()
	}
}

// String walks a length-prefixed string.
func (c *Coder) String(p *string) {
	if c.e != nil {
		c.e.String(*p)
	} else {
		*p = c.d.String()
	}
}

// ID walks a 128-bit identifier as 16 raw bytes.
func (c *Coder) ID(p *ids.ID) {
	if c.e != nil {
		c.e.ID(*p)
	} else {
		*p = c.d.ID()
	}
}

// Addr walks a transport address.
func (c *Coder) Addr(p *transport.Addr) {
	if c.e != nil {
		c.e.Addr(*p)
	} else {
		*p = c.d.Addr()
	}
}

// Value walks a tagged value.
func (c *Coder) Value(p *any) {
	if c.e != nil {
		c.e.Value(*p)
	} else {
		*p = c.d.Value()
	}
}

// List walks a nil-preserving slice: count 0 for nil, len+1 otherwise,
// then each element through elem. Every element occupies at least
// minElem encoded bytes, so a decoded count the remaining bytes cannot
// hold fails before anything is allocated.
func List[E any](c *Coder, s *[]E, minElem int, elem func(*E, *Coder)) {
	if c.e != nil {
		c.e.nilCount(*s == nil, len(*s))
	} else {
		isNil, n := c.d.nilCount(minElem)
		if isNil || c.d.err != nil {
			return
		}
		*s = make([]E, n)
	}
	for i := range *s {
		elem(&(*s)[i], c)
	}
}

// CountedList walks a slice under a plain count, so an empty slice
// decodes as nil. minElem guards the count as in List.
func CountedList[E any](c *Coder, s *[]E, minElem int, elem func(*E, *Coder)) {
	if c.e != nil {
		c.e.Uvarint(uint64(len(*s)))
	} else if n := c.d.Count(minElem); n > 0 {
		*s = make([]E, n)
	}
	for i := range *s {
		elem(&(*s)[i], c)
	}
}
