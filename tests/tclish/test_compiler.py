"""Tests for the compile-once execution engine.

Two halves: unit tests for the word/segment analysis and the shared
compile cache, and an equivalence corpus asserting that the compiled
engine produces exactly what the parse-per-eval path produces -- same
results, same variable state, same output, same errors.
"""

import pytest

from repro.core.tclish import Interp, TclError, clear_cache, compile_script
from repro.core.tclish import compiler
from repro.core.tclish.compiler import (
    LITERAL,
    SEG_CMD,
    SEG_TEXT,
    SEG_VAR,
    SEGMENTS,
    VARREF,
    analyze_word,
    compile_substitution,
)


class TestWordAnalysis:
    def test_braced_word_is_literal_verbatim(self):
        word = analyze_word("{$not substituted}")
        assert word.kind == LITERAL
        assert word.text == "$not substituted"

    def test_plain_bare_word_is_literal(self):
        word = analyze_word("hello")
        assert word.kind == LITERAL
        assert word.text == "hello"

    def test_quoted_word_without_specials_is_literal(self):
        word = analyze_word('"hello world"')
        assert word.kind == LITERAL
        assert word.text == "hello world"

    def test_simple_variable_is_varref(self):
        assert analyze_word("$count").kind == VARREF
        assert analyze_word("$count").text == "count"

    def test_braced_variable_is_varref(self):
        word = analyze_word("${a b}")
        assert word.kind == VARREF
        assert word.text == "a b"

    def test_mixed_word_becomes_segments(self):
        word = analyze_word("${it}px")
        assert word.kind == SEGMENTS
        assert word.segments == ((SEG_VAR, "it"), (SEG_TEXT, "px"))

    def test_backslash_only_word_collapses_to_literal(self):
        word = analyze_word(r"a\tb")
        assert word.kind == LITERAL
        assert word.text == "a\tb"

    def test_command_substitution_segment(self):
        segments = compile_substitution("x[cmd a]y")
        assert segments == ((SEG_TEXT, "x"), (SEG_CMD, "cmd a"),
                            (SEG_TEXT, "y"))

    def test_lone_dollar_is_text(self):
        assert compile_substitution("a$ b") == ((SEG_TEXT, "a$ b"),)

    def test_unmatched_bracket_raises(self):
        with pytest.raises(TclError, match="unmatched open bracket"):
            compile_substitution("a[oops")


class TestCompileScript:
    def test_command_and_word_counts(self):
        script = compile_script("set a 1\nif {$a} {puts yes}")
        assert len(script.commands) == 2
        assert [w.kind for w in script.commands[0].words] == [
            LITERAL, LITERAL, LITERAL]

    def test_comments_and_blank_lines_dropped(self):
        script = compile_script("# comment\n\nset a 1\n")
        assert len(script.commands) == 1


class TestCompileCache:
    def setup_method(self):
        clear_cache()

    def teardown_method(self):
        clear_cache()

    def test_eval_counts_hits_and_misses(self):
        interp = Interp()
        base_evals = interp.eval_count
        interp.eval("set a 1")
        interp.eval("set a 1")
        interp.eval("set a 1")
        stats = interp.stats()
        assert stats["eval_count"] == base_evals + 3
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == 2

    def test_cache_shared_across_interps(self):
        one = Interp()
        one.eval("set shared 1")
        two = Interp()
        two.eval("set shared 1")
        assert two.cache_hits == 1
        assert two.cache_misses == 0

    def test_control_flow_bodies_hit_the_cache(self):
        interp = Interp()
        interp.eval("set n 0")
        interp.eval("while {$n < 3} {incr n}")
        # the loop body was evaluated three times from one compilation
        assert interp.cache_hits >= 2

    def test_lru_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(compiler, "CACHE_MAX", 4)
        interp = Interp()
        for i in range(8):
            interp.eval(f"set v{i} {i}")
        assert compiler.cache_size() <= 4

    def test_filter_warm_compile(self):
        from repro.core import TclishFilter
        script = TclishFilter("incr n", init_script="set n 0")
        assert script.interp.cache_misses >= 1
        assert compiler.cache_size() >= 1


#: scripts covering the tclish surface; each must behave identically under
#: the compiled and parse-per-eval engines
EQUIVALENCE_CORPUS = [
    "set a 1",
    "set a 5; incr a; incr a 10",
    "set a hello; append a _world; set a",
    "set x 4; expr {$x * 3 + 1}",
    "expr {3.5 / 2}",
    'expr {"abc" eq "abc" && 2 < 3}',
    "set n 0; while {$n < 5} {incr n}; set n",
    "set total 0; for {set i 0} {$i < 10} {incr i} "
    "{set total [expr {$total + $i}]}; set total",
    "set out {}; foreach x {a b c} {append out $x-}; set out",
    "proc double {x} {return [expr {$x * 2}]}; double 21",
    "proc counter {} {global n; incr n}; set n 0; counter; counter; set n",
    "catch {error boom} msg; set msg",
    "catch {set nope}",
    'set l [list a b "c d"]; lindex $l 2',
    "llength {a b c d}",
    "set l {}; lappend l x; lappend l y z; set l",
    "lrange {a b c d e} 1 3",
    "lsort -integer {3 1 2}",
    "lsearch {a b c} c",
    'join [split "a,b,c" ,] -',
    "string toupper abc",
    "string range hello 1 3",
    'format "%d-%s" 7 x',
    "switch -glob DATA {D* {set r data} default {set r other}}; set r",
    'set name world; puts "hello $name"; puts -nonewline done',
    "eval set dyn 9; set dyn",
    "set a 3; set b [expr {$a + [llength {x y}]}]",
    "set it 5; set x ${it}px; set x",
    r'set s "tab\tend"; string length $s',
    "while {1} {break}",
    "set i 0; while {$i < 6} {incr i; if {$i == 2} {continue}}; set i",
    "if {0} {set r no} elseif {1} {set r yes} else {set r other}; set r",
    "info exists missing",
    "set a 1; info exists a",
    "set q [expr {1 ? 10 : 20}]",
]

#: scripts that must fail identically on both engines
ERROR_CORPUS = [
    "no_such_command foo",
    "set",
    "expr {1 +}",
    "unset nosuch",
    "while {1} {error stop}",
    "foreach x {a b} {error inner}",
    "incr v one two three",
]


def _run_both(source):
    compiled = Interp(compiled=True)
    fresh = Interp(compiled=False)
    return compiled, compiled.eval(source), fresh, fresh.eval(source)


class TestCompiledEquivalence:
    @pytest.mark.parametrize("source", EQUIVALENCE_CORPUS)
    def test_results_state_and_output_match(self, source):
        compiled, compiled_result, fresh, fresh_result = _run_both(source)
        assert compiled_result == fresh_result
        assert compiled.globals == fresh.globals
        assert compiled.output_lines == fresh.output_lines

    @pytest.mark.parametrize("source", ERROR_CORPUS)
    def test_errors_match(self, source):
        with pytest.raises(TclError) as compiled_err:
            Interp(compiled=True).eval(source)
        with pytest.raises(TclError) as fresh_err:
            Interp(compiled=False).eval(source)
        assert str(compiled_err.value) == str(fresh_err.value)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_runaway_recursion_is_a_catchable_tcl_error(self, compiled):
        interp = Interp(compiled=compiled)
        interp.eval("proc f {n} {return [f $n]}")
        message = "too many nested evaluations (infinite loop?)"
        with pytest.raises(TclError) as err:
            interp.eval("f 1")
        assert str(err.value) == message
        assert interp.eval("list [catch {f 1} msg] $msg") \
            == f"1 {{{message}}}"
        assert interp._frames == []

    def test_persistent_state_across_evals_matches(self):
        compiled = Interp(compiled=True)
        fresh = Interp(compiled=False)
        for interp in (compiled, fresh):
            interp.eval("set seen 0; set dropped 0")
            for kind in ["ACK", "DATA", "ACK", "ACK", "DATA"]:
                interp.set_var("kind", kind)
                interp.eval(
                    'incr seen\n'
                    'if {$kind eq "ACK"} {incr dropped}\n'
                    'puts "$seen:$dropped"')
        assert compiled.globals == fresh.globals
        assert compiled.output_lines == fresh.output_lines
