// Package query implements RBAY's SQL-like query language (paper §III-D,
// modeled on Zql): parsing composite queries of the form
//
//	SELECT k FROM * WHERE CPU_model = "Intel Core i7"
//	    AND CPU_utilization < 10% GROUPBY CPU_utilization DESC;
//
// into a Query structure the core's planner executes with the tree-size
// probe / smaller-tree anycast protocol.
package query

import (
	"fmt"
	"strconv"
	"strings"

	"rbay/internal/naming"
)

// Query is a parsed composite query.
type Query struct {
	// K is the number of servers requested; 0 means "all matching"
	// (SELECT * or SELECT NodeId).
	K int
	// Sites restricts the search ("FROM virginia, tokyo"); nil means all
	// federated sites ("FROM *").
	Sites []string
	// Preds are the WHERE conjuncts.
	Preds []naming.Pred
	// OrderBy optionally names the attribute results are ordered by
	// (the paper's GROUPBY clause), with Desc direction.
	OrderBy string
	Desc    bool
}

// String renders the query back to canonical SQL-like text.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.K == 0 {
		b.WriteString("*")
	} else {
		fmt.Fprintf(&b, "%d", q.K)
	}
	b.WriteString(" FROM ")
	if len(q.Sites) == 0 {
		b.WriteString("*")
	} else {
		b.WriteString(strings.Join(q.Sites, ", "))
	}
	for i, p := range q.Preds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "%s %s %s", p.Attr, p.Op, renderValue(p.Value))
	}
	if q.OrderBy != "" {
		fmt.Fprintf(&b, " GROUPBY %s", q.OrderBy)
		if q.Desc {
			b.WriteString(" DESC")
		} else {
			b.WriteString(" ASC")
		}
	}
	b.WriteString(";")
	return b.String()
}

func renderValue(v any) string {
	switch x := v.(type) {
	case string:
		// A literal is read raw up to its closing quote, with no escapes:
		// render it raw inside whichever quote it does not contain.
		switch {
		case !strings.Contains(x, `"`):
			return `"` + x + `"`
		case !strings.Contains(x, "'"):
			return "'" + x + "'"
		}
		return strconv.Quote(x) // holds both quotes, which no literal can
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// ParseError reports a malformed query.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("query: parse error at offset %d: %s", e.Pos, e.Msg)
}

type qlexer struct {
	src string
	pos int
}

type qtoken struct {
	kind string // "word", "number", "string", "op", "punct", "eof"
	text string
	num  float64
	pos  int
}

func (l *qlexer) next() (qtoken, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return qtoken{kind: "eof", pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isWordStart(c):
		for l.pos < len(l.src) && isWordChar(l.src[l.pos]) {
			l.pos++
		}
		return qtoken{kind: "word", text: l.src[start:l.pos], pos: start}, nil
	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			// An exponent may be signed: String renders 1e7 as 1e+07.
			sign := (ch == '+' || ch == '-') && l.src[l.pos-1]|0x20 == 'e'
			if !(ch >= '0' && ch <= '9' || ch == '.' || ch == 'e' || ch == 'E' || sign) {
				break
			}
			l.pos++
		}
		text := l.src[start:l.pos]
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return qtoken{}, &ParseError{Pos: start, Msg: "malformed number " + text}
		}
		// Percent literal: 10% means 0.10 (paper's CPU_utilization < 10%).
		if l.pos < len(l.src) && l.src[l.pos] == '%' {
			l.pos++
			f /= 100
		}
		return qtoken{kind: "number", num: f, pos: start}, nil
	case c == '"' || c == '\'':
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return qtoken{}, &ParseError{Pos: start, Msg: "unterminated string"}
			}
			ch := l.src[l.pos]
			l.pos++
			if ch == c {
				return qtoken{kind: "string", text: b.String(), pos: start}, nil
			}
			b.WriteByte(ch)
		}
	case c == '<' || c == '>' || c == '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		return qtoken{kind: "op", text: l.src[start:l.pos], pos: start}, nil
	case c == '=':
		l.pos++
		return qtoken{kind: "op", text: "=", pos: start}, nil
	case c == ',' || c == ';' || c == '*' || c == '(' || c == ')':
		l.pos++
		return qtoken{kind: "punct", text: string(c), pos: start}, nil
	}
	return qtoken{}, &ParseError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c)}
}

func isSpace(c byte) bool     { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isWordStart(c byte) bool { return c == '_' || (c|0x20 >= 'a' && c|0x20 <= 'z') }
func isWordChar(c byte) bool  { return isWordStart(c) || (c >= '0' && c <= '9') || c == '.' }

// Parse parses one SQL-like query.
func Parse(src string) (*Query, error) {
	p := &qparser{lex: &qlexer{src: src}}
	if err := p.prime(); err != nil {
		return nil, err
	}
	return p.parseQuery()
}

// MustParse panics on malformed queries; for static workloads in tests and
// examples.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type qparser struct {
	lex *qlexer
	cur qtoken
}

func (p *qparser) prime() error { return p.advance() }

func (p *qparser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *qparser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.cur.pos, Msg: fmt.Sprintf(format, args...)}
}

// keyword checks the current token case-insensitively.
func (p *qparser) keyword(word string) bool {
	return p.cur.kind == "word" && strings.EqualFold(p.cur.text, word)
}

func (p *qparser) expectKeyword(word string) error {
	if !p.keyword(word) {
		return p.errf("expected %s", strings.ToUpper(word))
	}
	return p.advance()
}

func (p *qparser) parseQuery() (*Query, error) {
	q := &Query{}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	switch {
	case p.cur.kind == "punct" && p.cur.text == "*":
		q.K = 0
		if err := p.advance(); err != nil {
			return nil, err
		}
	case p.cur.kind == "number":
		k := int(p.cur.num)
		if k < 1 || float64(k) != p.cur.num {
			return nil, p.errf("SELECT count must be a positive integer")
		}
		q.K = k
		if err := p.advance(); err != nil {
			return nil, err
		}
	case p.keyword("nodeid"):
		q.K = 0
		if err := p.advance(); err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("expected a count, NodeId, or * after SELECT")
	}

	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if p.cur.kind == "punct" && p.cur.text == "*" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		for {
			if p.cur.kind != "word" {
				return nil, p.errf("expected site name or * after FROM")
			}
			q.Sites = append(q.Sites, strings.ToLower(p.cur.text))
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.cur.kind == "punct" && p.cur.text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}

	if p.keyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			q.Preds = append(q.Preds, pred)
			if p.keyword("and") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}

	if p.keyword("groupby") || p.keyword("orderby") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.kind != "word" {
			return nil, p.errf("expected attribute after GROUPBY")
		}
		q.OrderBy = p.cur.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch {
		case p.keyword("desc"):
			q.Desc = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.keyword("asc"):
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}

	if p.cur.kind == "punct" && p.cur.text == ";" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.cur.kind != "eof" {
		return nil, p.errf("unexpected trailing input %q", p.cur.text)
	}
	if q.K < 0 {
		return nil, p.errf("negative count")
	}
	return q, nil
}

func (p *qparser) parsePredicate() (naming.Pred, error) {
	var pred naming.Pred
	if p.cur.kind != "word" {
		return pred, p.errf("expected attribute name in WHERE")
	}
	pred.Attr = p.cur.text
	if err := p.advance(); err != nil {
		return pred, err
	}
	if p.cur.kind != "op" {
		return pred, p.errf("expected comparison operator after %q", pred.Attr)
	}
	switch p.cur.text {
	case "=":
		pred.Op = naming.OpEq
	case "!=":
		pred.Op = naming.OpNe
	case "<":
		pred.Op = naming.OpLt
	case "<=":
		pred.Op = naming.OpLe
	case ">":
		pred.Op = naming.OpGt
	case ">=":
		pred.Op = naming.OpGe
	default:
		return pred, p.errf("unknown operator %q", p.cur.text)
	}
	if err := p.advance(); err != nil {
		return pred, err
	}
	switch p.cur.kind {
	case "number":
		pred.Value = p.cur.num
	case "string":
		pred.Value = p.cur.text
	case "word":
		switch strings.ToLower(p.cur.text) {
		case "true":
			pred.Value = true
		case "false":
			pred.Value = false
		default:
			// Bare words are treated as strings (Zql tolerance).
			pred.Value = p.cur.text
		}
	default:
		return pred, p.errf("expected a literal after operator")
	}
	if err := p.advance(); err != nil {
		return pred, err
	}
	return pred, nil
}
