package dice

import (
	"repro/internal/brat"
	"repro/internal/datagen"
)

// Cases exposes the generated dataset (read-only by convention).
func (t *Task) Cases() []datagen.ClinicalCase { return t.cases }

// Oracle computes the expected output directly, as the testing
// reference both paradigm implementations must reproduce.
func Oracle(cases []datagen.ClinicalCase) ([]Record, error) {
	var out []Record
	ents := make(map[string]brat.Entity)
	for i := range cases {
		var err error
		out, err = appendCaseRecords(out, &cases[i], splitCaseSentences(cases[i].Text), ents)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
