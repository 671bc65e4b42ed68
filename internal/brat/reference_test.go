package brat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The scanner / SplitN / Fields parser and the Fprintf renderer that
// ParseString and Render replaced, kept verbatim as the oracle the
// differential tests compare against.

func refParse(r io.Reader) (*Document, error) {
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
			e, err := refParseEntity(line)
			if err != nil {
				return nil, fmt.Errorf("brat: line %d: %w", lineNo, err)
			}
			doc.Entities = append(doc.Entities, e)
		case 'E':
			ev, err := refParseEvent(line)
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

func refParseString(s string) (*Document, error) {
	return refParse(strings.NewReader(s))
}

// refParseEntity parses "T1\tAge 18 27\t34-yr-old".
func refParseEntity(line string) (Entity, error) {
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

// refParseEvent parses "E1\tClinical_event:T3 Theme:T5".
func refParseEvent(line string) (Event, error) {
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

func refRender(d *Document) string {
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

// RefRender hands the oracle to the tests in package brat_test, which
// import datagen and so cannot live in this package.
var RefRender = refRender
