package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// Suppression syntax:
//
//	//pbcheck:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory: a suppression is a claim that the invariant
// does not apply here, and the claim must be argued in the source. A
// suppression covers findings of the named rule(s) on its own line
// (trailing-comment form) and on the line directly below it
// (standalone-comment form). A malformed suppression — missing rule,
// missing reason, or naming a rule that does not exist — is itself a
// finding under the reserved rule name "ignore", which cannot be
// suppressed.

// IgnoreRule is the reserved rule name for malformed suppression
// comments.
const IgnoreRule = "ignore"

const ignoreMarker = "pbcheck:ignore"

// suppression is one parsed //pbcheck:ignore comment.
type suppression struct {
	file   string
	line   int // line the comment sits on; covers line and line+1
	rules  map[string]bool
	reason string
	// position is the comment's own location, where the stale-waiver
	// check reports.
	position token.Position
}

// scanSuppressions parses every //pbcheck:ignore comment in the
// package. known maps valid rule names; unknown names produce
// diagnostics so stale suppressions cannot rot silently.
func scanSuppressions(pkg *Package, known map[string]bool) ([]suppression, []Diagnostic) {
	var sups []suppression
	var diags []Diagnostic
	report := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{
			Rule:     IgnoreRule,
			Position: pkg.Fset.Position(pos),
			Message:  msg,
		})
	}
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*") // block form tolerated
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, ignoreMarker)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "//pbcheck:ignore needs a rule and a reason: //pbcheck:ignore <rule> <reason>")
					continue
				}
				if len(fields) < 2 {
					report(c.Pos(), "//pbcheck:ignore "+fields[0]+" needs a reason explaining why the invariant does not apply here")
					continue
				}
				rules := make(map[string]bool)
				bad := false
				for _, r := range strings.Split(fields[0], ",") {
					if r == "" || !known[r] {
						report(c.Pos(), "//pbcheck:ignore names unknown rule "+strings.TrimSpace(r)+" (run pbcheck -list for valid rules)")
						bad = true
						continue
					}
					rules[r] = true
				}
				if bad && len(rules) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				sups = append(sups, suppression{
					file:     pos.Filename,
					line:     pos.Line,
					rules:    rules,
					reason:   strings.TrimSpace(strings.Join(fields[1:], " ")),
					position: pos,
				})
			}
		}
	}
	return sups, diags
}

// applySuppressions marks diagnostics covered by a suppression. The
// reserved "ignore" rule is never suppressible. The returned slice
// flags, per suppression, whether it suppressed at least one
// diagnostic — input to the stale-waiver check.
func applySuppressions(diags []Diagnostic, sups []suppression) []bool {
	fired := make([]bool, len(sups))
	for i := range diags {
		d := &diags[i]
		if d.Rule == IgnoreRule {
			continue
		}
		// A waiver trailing the finding's own line beats one sitting on
		// the line above: the closer claim wins, and the line-above
		// waiver stays attributable to its own line's finding.
		match := -1
		for j, s := range sups {
			if s.file != d.Position.Filename || !s.rules[d.Rule] {
				continue
			}
			if d.Position.Line == s.line {
				match = j
				break
			}
			if d.Position.Line == s.line+1 && match < 0 {
				match = j
			}
		}
		if match >= 0 {
			d.Suppressed = true
			d.Reason = sups[match].reason
			fired[match] = true
		}
	}
	return fired
}

// staleWaivers flags every suppression that did nothing: it suppressed
// no diagnostic this run AND cut no fact during seeding, while every
// rule it names is known (an unknown rule is already its own finding).
// A waiver that has gone stale
// is a claim nobody is checking anymore — left in place it would
// silently swallow the next real finding on its line.
func staleWaivers(facts *FactIndex, sups []suppression, fired []bool, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for i, s := range sups {
		if fired[i] {
			continue
		}
		stale := true
		names := make([]string, 0, len(s.rules))
		for rule := range s.rules {
			if !known[rule] || facts.WaiverUsedAt(s.file, s.line, rule) {
				stale = false
				break
			}
			names = append(names, rule)
		}
		if !stale {
			continue
		}
		sort.Strings(names)
		out = append(out, Diagnostic{
			Rule:     IgnoreRule,
			Position: s.position,
			Message: "stale //pbcheck:ignore: " + strings.Join(names, ",") +
				" reports nothing on this or the next line; delete the waiver so it cannot mask a future regression",
		})
	}
	return out
}
