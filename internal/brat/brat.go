// Package brat reads and writes the standoff annotation format used by
// the MACCROBAT dataset (the BRAT rapid annotation tool format shown
// in the paper's Figure 3). An annotation file accompanies a plain
// text file; entity annotations ("T" lines) carry a type, a character
// span and the covered text, and event annotations ("E" lines) carry a
// type plus a reference to their trigger entity and optional role
// arguments.
package brat

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Entity is a "T" annotation: a typed character span.
type Entity struct {
	ID    string // e.g. "T1"
	Type  string // e.g. "Sign_symptom"
	Start int    // byte offset, inclusive
	End   int    // byte offset, exclusive
	Text  string // the covered text
}

// Arg is one role argument of an event.
type Arg struct {
	Role string // e.g. "Theme"
	Ref  string // referenced annotation ID, e.g. "T5"
}

// Event is an "E" annotation: a typed event anchored to a trigger
// entity, optionally with role arguments.
type Event struct {
	ID      string // e.g. "E1"
	Type    string // e.g. "Clinical_event"
	Trigger string // trigger entity ID, e.g. "T3"
	Args    []Arg
}

// Document is the parsed content of one annotation file.
type Document struct {
	Entities []Entity
	Events   []Event
}

// ParseString parses an annotation file held in a string. Unknown line
// kinds are rejected; blank lines are skipped. Every ID, type, text and
// argument of the result is a substring of s, so the document keeps s
// alive as a whole.
func ParseString(s string) (*Document, error) {
	// Count first, so each slice is allocated once: one T line is one
	// entity, one E line one event, and an argument needs a colon of its
	// own after the head's.
	var nEnt, nEv, nArg int
	for rest := s; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		switch {
		case line == "":
		case line[0] == 'T':
			nEnt++
		case line[0] == 'E':
			nEv++
			nArg += max(strings.Count(line, ":")-1, 0)
		}
	}
	// Nothing is validated yet, so cap each count by what s can hold, as
	// DecodeTuple caps its capHint: the shortest lines that parse are
	// "T\tA 0 1\t\n" (9 bytes) and "E\tA:B\n" (6), the shortest argument
	// " A:B" (4), and the last line may lack its newline.
	nEnt, nEv, nArg = min(nEnt, (len(s)+1)/9), min(nEv, (len(s)+1)/6), min(nArg, len(s)/4)
	doc := &Document{Entities: make([]Entity, 0, nEnt), Events: make([]Event, 0, nEv)}
	args := make([]Arg, 0, nArg)

	lineNo := 0
	for rest := s; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		// bufio.Scanner's limit, kept from when this parser read through
		// one: a line and its newline must fit a 1 MiB buffer.
		if len(line) >= 1<<20 {
			return nil, fmt.Errorf("brat: %w", bufio.ErrTooLong)
		}
		lineNo++
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		switch line[0] {
		case 'T':
			e, err := parseEntity(line)
			if err != nil {
				return nil, fmt.Errorf("brat: line %d: %w", lineNo, err)
			}
			doc.Entities = append(doc.Entities, e)
		case 'E':
			var ev Event
			var err error
			ev, args, err = parseEvent(line, args)
			if err != nil {
				return nil, fmt.Errorf("brat: line %d: %w", lineNo, err)
			}
			doc.Events = append(doc.Events, ev)
		default:
			return nil, fmt.Errorf("brat: line %d: unknown annotation kind %q", lineNo, line[0])
		}
	}
	return doc, nil
}

// nextField returns the first field of s and what follows it, splitting
// exactly where strings.Fields does: at every unicode.IsSpace rune. An
// empty field means s held none.
func nextField(s string) (field, rest string) {
	start := -1
	for i, r := range s {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			return s[start:i], s[i:]
		}
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

// parseEntity parses "T1\tAge 18 27\t34-yr-old".
func parseEntity(line string) (Entity, error) {
	id, rest, ok := strings.Cut(line, "\t")
	if !ok {
		return Entity{}, errors.New("entity needs 3 tab-separated fields, got 1")
	}
	header, text, ok := strings.Cut(rest, "\t")
	if !ok {
		return Entity{}, errors.New("entity needs 3 tab-separated fields, got 2")
	}
	typ, h := nextField(header)
	startField, h := nextField(h)
	endField, h := nextField(h)
	if extra, _ := nextField(h); endField == "" || extra != "" {
		return Entity{}, fmt.Errorf("entity header needs `Type Start End`, got %q", header)
	}
	start, err := strconv.Atoi(startField)
	if err != nil {
		return Entity{}, fmt.Errorf("bad start offset %q", startField)
	}
	end, err := strconv.Atoi(endField)
	if err != nil {
		return Entity{}, fmt.Errorf("bad end offset %q", endField)
	}
	if start < 0 || end <= start {
		return Entity{}, fmt.Errorf("invalid span [%d,%d)", start, end)
	}
	return Entity{ID: id, Type: typ, Start: start, End: end, Text: text}, nil
}

// parseEvent parses "E1\tClinical_event:T3 Theme:T5". The event's
// arguments are appended to args, the arena every event of one file
// shares, and the event holds its own stretch of it.
func parseEvent(line string, args []Arg) (Event, []Arg, error) {
	id, body, ok := strings.Cut(line, "\t")
	if !ok {
		return Event{}, args, errors.New("event needs 2 tab-separated fields, got 1")
	}
	head, body := nextField(body)
	if head == "" {
		return Event{}, args, errors.New("event body is empty")
	}
	typ, trigger, ok := strings.Cut(head, ":")
	if !ok || typ == "" || trigger == "" {
		return Event{}, args, fmt.Errorf("event head needs `Type:Trigger`, got %q", head)
	}
	ev := Event{ID: id, Type: typ, Trigger: trigger}
	first := len(args)
	for f, rest := nextField(body); f != ""; f, rest = nextField(rest) {
		role, ref, ok := strings.Cut(f, ":")
		if !ok || role == "" || ref == "" {
			return Event{}, args, fmt.Errorf("event arg needs `Role:Ref`, got %q", f)
		}
		args = append(args, Arg{Role: role, Ref: ref})
	}
	if len(args) > first {
		ev.Args = args[first:len(args):len(args)]
	}
	return ev, args, nil
}

// Render writes the document back in BRAT format, entities first then
// events, in slice order.
func Render(d *Document) string {
	var num [20]byte // the longest int64 in decimal, sign included
	size := 0
	for i := range d.Entities {
		e := &d.Entities[i]
		size += len(e.ID) + len(e.Type) + len(e.Text) + len("\t  \t\n") +
			len(strconv.AppendInt(num[:0], int64(e.Start), 10)) +
			len(strconv.AppendInt(num[:0], int64(e.End), 10))
	}
	for i := range d.Events {
		ev := &d.Events[i]
		size += len(ev.ID) + len(ev.Type) + len(ev.Trigger) + len("\t:\n")
		for _, a := range ev.Args {
			size += len(a.Role) + len(a.Ref) + len(" :")
		}
	}
	var b strings.Builder
	b.Grow(size)
	for i := range d.Entities {
		e := &d.Entities[i]
		b.WriteString(e.ID)
		b.WriteByte('\t')
		b.WriteString(e.Type)
		b.WriteByte(' ')
		b.Write(strconv.AppendInt(num[:0], int64(e.Start), 10))
		b.WriteByte(' ')
		b.Write(strconv.AppendInt(num[:0], int64(e.End), 10))
		b.WriteByte('\t')
		b.WriteString(e.Text)
		b.WriteByte('\n')
	}
	for i := range d.Events {
		ev := &d.Events[i]
		b.WriteString(ev.ID)
		b.WriteByte('\t')
		b.WriteString(ev.Type)
		b.WriteByte(':')
		b.WriteString(ev.Trigger)
		for _, a := range ev.Args {
			b.WriteByte(' ')
			b.WriteString(a.Role)
			b.WriteByte(':')
			b.WriteString(a.Ref)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
