package dice

import (
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// Texera-style Python UDF bodies for the workflow's map operators —
// the code a user types into the operator dialogs; the rest of the
// workflow is configuration. Together with the operator configs these
// are what the lines-of-code experiment counts for the workflow
// paradigm.

const udfParse = `class ParseAnnotationsOp(UDFOperator):
    def process_tuple(self, tuple_, port):
        case_id, ann = tuple_["case"], tuple_["ann"]
        for line in ann.split("\n"):
            if not line:
                continue
            key, body = line.split("\t", 1)
            if key.startswith("T"):
                header, text = body.split("\t", 1)
                etype, start, end = header.split(" ")
                yield {"case": case_id, "kind": "T", "id": key,
                       "etype": etype, "start": int(start), "end": int(end),
                       "text": text, "trigkey": "", "themekey": "",
                       "ekey": case_id + "|" + key}
            else:
                fields = body.split(" ")
                etype, trigger = fields[0].split(":")
                theme = ""
                for arg in fields[1:]:
                    role, ref = arg.split(":")
                    if role == "Theme":
                        theme = ref
                        break
                themekey = case_id + "|" + theme if theme else ""
                yield {"case": case_id, "kind": "E", "id": key,
                       "etype": etype, "start": 0, "end": 0, "text": "",
                       "trigkey": case_id + "|" + trigger,
                       "themekey": themekey, "ekey": ""}
`

const udfSplit = `class SplitSentencesOp(UDFOperator):
    def process_tuple(self, tuple_, port):
        for s in split_sentences(tuple_["text"]):
            yield {"case": tuple_["case"], "sentence": s.text,
                   "sstart": s.start, "send": s.end}
`

const udfShapeOutput = `class ShapeOutputOp(UDFOperator):
    def process_tuple(self, tuple_, port):
        yield {"case": tuple_["case"], "event": tuple_["id"],
               "etype": tuple_["etype"], "trigger": tuple_["text"],
               "theme": tuple_["theme_text"], "sentence": tuple_["sentence"]}
`

// schemas used between the workflow operators.
var (
	parsedSchema = relation.MustSchema(
		relation.Field{Name: "case", Type: relation.String},
		relation.Field{Name: "kind", Type: relation.String},
		relation.Field{Name: "id", Type: relation.String},
		relation.Field{Name: "etype", Type: relation.String},
		relation.Field{Name: "start", Type: relation.Int},
		relation.Field{Name: "end", Type: relation.Int},
		relation.Field{Name: "text", Type: relation.String},
		relation.Field{Name: "trigkey", Type: relation.String},
		relation.Field{Name: "themekey", Type: relation.String},
		relation.Field{Name: "ekey", Type: relation.String},
	)
	entitySchema = relation.MustSchema(
		relation.Field{Name: "ekey", Type: relation.String},
		relation.Field{Name: "start", Type: relation.Int},
		relation.Field{Name: "end", Type: relation.Int},
		relation.Field{Name: "text", Type: relation.String},
	)
	eventSchema = relation.MustSchema(
		relation.Field{Name: "case", Type: relation.String},
		relation.Field{Name: "id", Type: relation.String},
		relation.Field{Name: "etype", Type: relation.String},
		relation.Field{Name: "trigkey", Type: relation.String},
		relation.Field{Name: "themekey", Type: relation.String},
	)
	mergedSchema = relation.MustSchema(
		relation.Field{Name: "case", Type: relation.String},
		relation.Field{Name: "id", Type: relation.String},
		relation.Field{Name: "etype", Type: relation.String},
		relation.Field{Name: "trigkey", Type: relation.String},
		relation.Field{Name: "theme_text", Type: relation.String},
	)
	sentenceSchema = relation.MustSchema(
		relation.Field{Name: "case", Type: relation.String},
		relation.Field{Name: "sentence", Type: relation.String},
		relation.Field{Name: "sstart", Type: relation.Int},
		relation.Field{Name: "send", Type: relation.Int},
	)
)

// Plan assembles the DICE dataflow graph (paper Figure 4).
func (t *Task) Plan(cfg core.RunConfig) (*dataflow.Workflow, error) {
	workers := cfg.Workers
	w := dataflow.New("dice")
	lang := cost.Python

	annSrc := w.Source("ann-files", t.annFileTable(), dataflow.WithScanWork(workScan))
	textSrc := w.Source("text-files", t.textFileTable(), dataflow.WithScanWork(workScan))

	// Parse annotation files into flat annotation rows.
	parse := dataflow.NewMap("parse-annotations", lang, parsedSchema, func(r relation.Tuple, out *dataflow.Rows) error {
		caseID := r[0].Str()
		doc, err := parseAnn(caseID, r[1].Str())
		if err != nil {
			return err
		}
		// A rendered file has one line per annotation.
		lines := len(doc.Entities) + len(doc.Events)
		out.Charge(workParse.Scale(float64(lines)))
		out.Grow(lines)
		// The cross-file join keys "case|id" of one file are cut from one
		// buffer: a key per entity, per trigger and per Theme.
		prefix, size := len(caseID)+1, 0
		for i := range doc.Entities {
			size += prefix + len(doc.Entities[i].ID)
		}
		for i := range doc.Events {
			size += prefix + len(doc.Events[i].Trigger)
			if theme := themeRef(&doc.Events[i]); theme != "" {
				size += prefix + len(theme)
			}
		}
		var keys strings.Builder
		keys.Grow(size)
		key := func(id string) string {
			start := keys.Len()
			keys.WriteString(caseID)
			keys.WriteByte('|')
			keys.WriteString(id)
			return keys.String()[start:]
		}
		for i := range doc.Entities {
			e := &doc.Entities[i]
			out.Emit(r[0], relation.StringValue("T"), relation.StringValue(e.ID), relation.StringValue(e.Type),
				relation.IntValue(int64(e.Start)), relation.IntValue(int64(e.End)), relation.StringValue(e.Text),
				relation.StringValue(""), relation.StringValue(""), relation.StringValue(key(e.ID)))
		}
		for i := range doc.Events {
			ev := &doc.Events[i]
			trigkey, themekey := key(ev.Trigger), ""
			if theme := themeRef(ev); theme != "" {
				themekey = key(theme)
			}
			out.Emit(r[0], relation.StringValue("E"), relation.StringValue(ev.ID), relation.StringValue(ev.Type),
				relation.IntValue(0), relation.IntValue(0), relation.StringValue(""),
				relation.StringValue(trigkey), relation.StringValue(themekey), relation.StringValue(""))
		}
		return nil
	})
	parse.Work = cost.Work{}
	parseID := w.Op(parse, dataflow.WithParallelism(workers), t.Signature("parse"))
	w.Connect(annSrc, parseID, 0, dataflow.RoundRobin())

	// Entity and event extraction (selective maps).
	extractEnt := dataflow.NewMap("extract-entities", lang, entitySchema, func(r relation.Tuple, out *dataflow.Rows) error {
		if r[1].Str() == "T" {
			out.Emit(r[9], r[4], r[5], r[6])
		}
		return nil
	})
	extractEnt.Work = cost.Work{Interp: 1.5e-3}
	entID := w.Op(extractEnt, dataflow.WithParallelism(workers))
	w.Connect(parseID, entID, 0, dataflow.RoundRobin())

	extractEv := dataflow.NewMap("extract-events", lang, eventSchema, func(r relation.Tuple, out *dataflow.Rows) error {
		if r[1].Str() == "E" {
			out.Emit(r[0], r[2], r[3], r[7], r[8])
		}
		return nil
	})
	extractEv.Work = cost.Work{Interp: 1.5e-3}
	evID := w.Op(extractEv, dataflow.WithParallelism(workers))
	w.Connect(parseID, evID, 0, dataflow.RoundRobin())

	// Theme-based event split (the Figure 4 filter).
	withTheme := dataflow.NewFilter("events-with-theme", lang, func(r relation.Tuple) bool {
		return r[4].Str() != ""
	})
	withTheme.Work = workFilter
	withThemeID := w.Op(withTheme, dataflow.WithParallelism(workers))
	w.Connect(evID, withThemeID, 0, dataflow.RoundRobin())

	noTheme := dataflow.NewFilter("events-without-theme", lang, func(r relation.Tuple) bool {
		return r[4].Str() == ""
	})
	noTheme.Work = workFilter
	noThemeID := w.Op(noTheme, dataflow.WithParallelism(workers))
	w.Connect(evID, noThemeID, 0, dataflow.RoundRobin())

	// Join the Theme subset with entities.
	joinTheme := dataflow.NewHashJoin("join-theme-entities", lang, "ekey", "themekey", relation.Inner)
	joinTheme.ProbeWork = workJoin
	joinThemeID := w.Op(joinTheme, dataflow.WithParallelism(workers))
	w.Connect(entID, joinThemeID, 0, dataflow.HashPartition("ekey"))
	w.Connect(withThemeID, joinThemeID, 1, dataflow.HashPartition("themekey"))

	// Reshape both branches to the merged schema.
	shapeTheme := dataflow.NewMap("shape-theme", lang, mergedSchema, func(r relation.Tuple, out *dataflow.Rows) error {
		// join output: case,id,etype,trigkey,themekey, start,end,text
		out.Emit(r[0], r[1], r[2], r[3], r[7])
		return nil
	})
	shapeTheme.Work = cost.Work{Interp: 1.5e-3}
	shapeThemeID := w.Op(shapeTheme, dataflow.WithParallelism(workers))
	w.Connect(joinThemeID, shapeThemeID, 0, dataflow.RoundRobin())

	shapeNoTheme := dataflow.NewMap("shape-heldout", lang, mergedSchema, func(r relation.Tuple, out *dataflow.Rows) error {
		out.Emit(r[0], r[1], r[2], r[3], relation.StringValue(""))
		return nil
	})
	shapeNoTheme.Work = cost.Work{Interp: 1.5e-3}
	shapeNoThemeID := w.Op(shapeNoTheme, dataflow.WithParallelism(workers))
	w.Connect(noThemeID, shapeNoThemeID, 0, dataflow.RoundRobin())

	// Rejoin with the held-out subset.
	union := dataflow.NewUnion("rejoin-heldout", lang)
	unionID := w.Op(union, dataflow.WithParallelism(workers))
	w.Connect(shapeThemeID, unionID, 0, dataflow.RoundRobin())
	w.Connect(shapeNoThemeID, unionID, 1, dataflow.RoundRobin())

	// Resolve trigger spans.
	joinTrig := dataflow.NewHashJoin("join-trigger-entities", lang, "ekey", "trigkey", relation.Inner)
	joinTrig.ProbeWork = workJoin
	joinTrigID := w.Op(joinTrig, dataflow.WithParallelism(workers))
	w.Connect(entID, joinTrigID, 0, dataflow.HashPartition("ekey"))
	w.Connect(unionID, joinTrigID, 1, dataflow.HashPartition("trigkey"))

	// Sentence splitting.
	split := dataflow.NewMap("split-sentences", lang, sentenceSchema, func(r relation.Tuple, out *dataflow.Rows) error {
		sentences := splitCaseSentences(r[1].Str())
		out.Charge(workSplit.Scale(float64(len(sentences))))
		out.Grow(len(sentences))
		for _, s := range sentences {
			out.Emit(r[0], relation.StringValue(s.Text), relation.IntValue(int64(s.Start)), relation.IntValue(int64(s.End)))
		}
		return nil
	})
	split.Work = cost.Work{}
	splitID := w.Op(split, dataflow.WithParallelism(workers), t.Signature("split"))
	w.Connect(textSrc, splitID, 0, dataflow.RoundRobin())

	// Link events to their sentence: join on case, then keep the
	// containing sentence.
	linkJoin := dataflow.NewHashJoin("join-sentences", lang, "case", "case", relation.Inner)
	linkJoin.ProbeWork = cost.Work{Interp: 1.5e-3}
	linkJoinID := w.Op(linkJoin, dataflow.WithParallelism(workers))
	w.Connect(splitID, linkJoinID, 0, dataflow.HashPartition("case"))
	w.Connect(joinTrigID, linkJoinID, 1, dataflow.HashPartition("case"))

	contain := dataflow.NewFilter("filter-containing", lang, func(r relation.Tuple) bool {
		// joined row: case,id,etype,trigkey,theme_text,start,end,text, sentence,sstart,send
		start, end := r[5].Int(), r[6].Int()
		return start >= r[9].Int() && end <= r[10].Int()
	})
	contain.Work = workLink
	containID := w.Op(contain, dataflow.WithParallelism(workers))
	w.Connect(linkJoinID, containID, 0, dataflow.RoundRobin())

	// Final shaping and the result sink.
	shapeOut := dataflow.NewMap("shape-output", lang, OutputSchema, func(r relation.Tuple, out *dataflow.Rows) error {
		out.Emit(r[0], r[1], r[2], r[7], r[4], r[8])
		return nil
	})
	shapeOut.Work = workWrite
	shapeOutID := w.Op(shapeOut, dataflow.WithParallelism(workers), t.Signature("write"))
	w.Connect(containID, shapeOutID, 0, dataflow.RoundRobin())

	sink := w.Sink("maccrobat-ee")
	w.Connect(shapeOutID, sink, 0, dataflow.RoundRobin())
	return w, nil
}

// Workflow implements pipeline.Declaration: the sink's rows become the
// canonical sorted record table, and the implementation size is each
// operator's configuration lines plus the UDF bodies typed into map
// operators.
func (t *Task) Workflow() pipeline.WorkflowDecl {
	return pipeline.WorkflowDecl{
		Sink:   "maccrobat-ee",
		UDFs:   []string{udfParse, udfSplit, udfShapeOutput},
		Config: workflowConfig,
		Shape: func(sink *relation.Table) (*relation.Table, map[string]float64, error) {
			// The sink's rows are already records; a copy is sorted, as
			// under a lineage store the sink may be a cached artifact.
			out := relation.NewTable(OutputSchema)
			if err := out.Concat(sink); err != nil {
				return nil, nil, err
			}
			return out, nil, out.SortBy("case", "event")
		},
	}
}

// workflowConfig is the operator configuration the user fills in
// through the GUI — the non-UDF part of the workflow implementation:
// per operator, its type and its parameter line.
var workflowConfig = [][]string{
	{"FileScan", `path=maccrobat/*.ann, format=text, output=[case, ann]`},
	{"FileScan", `path=maccrobat/*.txt, format=text, output=[case, text]`},
	{"PythonUDF", `class=ParseAnnotationsOp, workers=N`},
	{"PythonUDF", `class=ExtractEntitiesOp, keep=kind==T, output=[ekey, start, end, text]`},
	{"PythonUDF", `class=ExtractEventsOp, keep=kind==E, output=[case, id, etype, trigkey, themekey]`},
	{"Filter", `condition=themekey != ""`},
	{"Filter", `condition=themekey == ""`},
	{"HashJoin", `build=entities.ekey, probe=events.themekey, type=inner`},
	{"Projection", `output=[case, id, etype, trigkey, theme_text]`},
	{"Projection", `output=[case, id, etype, trigkey, theme_text=""]`},
	{"Union", `inputs=2`},
	{"HashJoin", `build=entities.ekey, probe=merged.trigkey, type=inner`},
	{"PythonUDF", `class=SplitSentencesOp, workers=N`},
	{"HashJoin", `build=sentences.case, probe=resolved.case, type=inner`},
	{"Filter", `condition=start >= sstart and end <= send`},
	{"PythonUDF", `class=ShapeOutputOp`},
	{"ViewResults", `name=maccrobat-ee`},
}
