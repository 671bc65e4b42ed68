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
	"fmt"
	"io"
	"strconv"
	"strings"
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

// EntityByID returns the entity with the given ID, or nil.
func (d *Document) EntityByID(id string) *Entity {
	for i := range d.Entities {
		if d.Entities[i].ID == id {
			return &d.Entities[i]
		}
	}
	return nil
}

// Parse reads a BRAT annotation file. Unknown line kinds are rejected;
// blank lines are skipped.
func Parse(r io.Reader) (*Document, error) {
	doc := &Document{}
	sc := bufio.NewScanner(r)
	// No initial buffer: the scanner starts at 4 KiB and grows to the
	// 1 MiB line limit only for a file that needs it.
	sc.Buffer(nil, 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r\n")
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
			ev, err := parseEvent(line)
			if err != nil {
				return nil, fmt.Errorf("brat: line %d: %w", lineNo, err)
			}
			doc.Events = append(doc.Events, ev)
		default:
			return nil, fmt.Errorf("brat: line %d: unknown annotation kind %q", lineNo, line[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("brat: %w", err)
	}
	return doc, nil
}

// ParseString parses an annotation file held in a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// parseEntity parses "T1\tAge 18 27\t34-yr-old".
func parseEntity(line string) (Entity, error) {
	parts := strings.SplitN(line, "\t", 3)
	if len(parts) != 3 {
		return Entity{}, fmt.Errorf("entity needs 3 tab-separated fields, got %d", len(parts))
	}
	mid := strings.Fields(parts[1])
	if len(mid) != 3 {
		return Entity{}, fmt.Errorf("entity header needs `Type Start End`, got %q", parts[1])
	}
	start, err := strconv.Atoi(mid[1])
	if err != nil {
		return Entity{}, fmt.Errorf("bad start offset %q", mid[1])
	}
	end, err := strconv.Atoi(mid[2])
	if err != nil {
		return Entity{}, fmt.Errorf("bad end offset %q", mid[2])
	}
	if start < 0 || end <= start {
		return Entity{}, fmt.Errorf("invalid span [%d,%d)", start, end)
	}
	return Entity{ID: parts[0], Type: mid[0], Start: start, End: end, Text: parts[2]}, nil
}

// parseEvent parses "E1\tClinical_event:T3 Theme:T5".
func parseEvent(line string) (Event, error) {
	parts := strings.SplitN(line, "\t", 2)
	if len(parts) != 2 {
		return Event{}, fmt.Errorf("event needs 2 tab-separated fields, got %d", len(parts))
	}
	fields := strings.Fields(parts[1])
	if len(fields) == 0 {
		return Event{}, fmt.Errorf("event body is empty")
	}
	typeTrig := strings.SplitN(fields[0], ":", 2)
	if len(typeTrig) != 2 || typeTrig[0] == "" || typeTrig[1] == "" {
		return Event{}, fmt.Errorf("event head needs `Type:Trigger`, got %q", fields[0])
	}
	ev := Event{ID: parts[0], Type: typeTrig[0], Trigger: typeTrig[1]}
	for _, f := range fields[1:] {
		kv := strings.SplitN(f, ":", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return Event{}, fmt.Errorf("event arg needs `Role:Ref`, got %q", f)
		}
		ev.Args = append(ev.Args, Arg{Role: kv[0], Ref: kv[1]})
	}
	return ev, nil
}

// Render writes the document back in BRAT format, entities first then
// events, in slice order.
func Render(d *Document) string {
	var b strings.Builder
	for _, e := range d.Entities {
		fmt.Fprintf(&b, "%s\t%s %d %d\t%s\n", e.ID, e.Type, e.Start, e.End, e.Text)
	}
	for _, ev := range d.Events {
		fmt.Fprintf(&b, "%s\t%s:%s", ev.ID, ev.Type, ev.Trigger)
		for _, a := range ev.Args {
			fmt.Fprintf(&b, " %s:%s", a.Role, a.Ref)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate checks internal consistency: unique IDs, event triggers and
// argument references resolving to existing annotations, and entity
// spans lying inside a text of the given length (pass a negative
// length to skip the span check).
func (d *Document) Validate(textLen int) error {
	ids := make(map[string]bool, len(d.Entities)+len(d.Events))
	for _, e := range d.Entities {
		if ids[e.ID] {
			return fmt.Errorf("brat: duplicate id %s", e.ID)
		}
		ids[e.ID] = true
		if textLen >= 0 && e.End > textLen {
			return fmt.Errorf("brat: entity %s span [%d,%d) exceeds text length %d", e.ID, e.Start, e.End, textLen)
		}
	}
	for _, ev := range d.Events {
		if ids[ev.ID] {
			return fmt.Errorf("brat: duplicate id %s", ev.ID)
		}
		ids[ev.ID] = true
	}
	for _, ev := range d.Events {
		if !ids[ev.Trigger] {
			return fmt.Errorf("brat: event %s trigger %s not found", ev.ID, ev.Trigger)
		}
		for _, a := range ev.Args {
			if !ids[a.Ref] {
				return fmt.Errorf("brat: event %s argument %s:%s not found", ev.ID, a.Role, a.Ref)
			}
		}
	}
	return nil
}
