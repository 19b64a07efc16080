//! Pins the interpreter's step accounting and error bookkeeping to exact
//! values, so a change to how steps, fuel or pending errors are tracked
//! cannot move them: the step deltas of fixed programs, the step at which
//! fuel runs out, and the un-caching of instances whose body failed.

use alphonse_lang::{compile, Interp, Mode, Val};

const SRC: &str = r#"
    VAR d : INTEGER := 0;
    PROCEDURE SumTo(n : INTEGER) : INTEGER =
    VAR s : INTEGER := 0;
    BEGIN
        FOR i := 1 TO n DO s := s + i; END;
        RETURN s;
    END SumTo;
    (*CACHED*) PROCEDURE Fib(n : INTEGER) : INTEGER =
    BEGIN
        IF n < 2 THEN RETURN n; END;
        RETURN Fib(n - 1) + Fib(n - 2);
    END Fib;
    PROCEDURE Spin() =
    BEGIN
        WHILE TRUE DO END;
    END Spin;
    (*CACHED*) PROCEDURE Div(n : INTEGER) : INTEGER =
    BEGIN RETURN n DIV d; END Div;
    (*CACHED*) PROCEDURE Outer(n : INTEGER) : INTEGER =
    BEGIN RETURN Div(n) + 1; END Outer;
"#;

fn interp(mode: Mode) -> Interp {
    Interp::new(compile(SRC).expect("program compiles"), mode).expect("globals initialize")
}

/// Steps charged by one call of `name(n)`.
fn steps_of(interp: &Interp, name: &str, n: i64) -> u64 {
    let before = interp.steps();
    interp.call(name, vec![Val::Int(n)]).expect("call succeeds");
    interp.steps() - before
}

#[test]
fn step_deltas_are_exact() {
    // (mode, first Fib(10), repeated Fib(10)): conventional execution
    // re-runs the whole call tree, Alphonse execution runs each instance
    // once and then answers from the cache in one step.
    for (mode, fib_first, fib_again) in [(Mode::Conventional, 1943, 1943), (Mode::Alphonse, 157, 1)]
    {
        let interp = interp(mode);
        assert_eq!(interp.steps(), 1, "{mode:?}: the global initializer");
        assert_eq!(steps_of(&interp, "SumTo", 10), 57, "{mode:?}: SumTo(10)");
        assert_eq!(steps_of(&interp, "Fib", 10), fib_first, "{mode:?}");
        assert_eq!(steps_of(&interp, "Fib", 10), fib_again, "{mode:?}");
    }
}

#[test]
fn fuel_runs_out_at_the_same_step() {
    for mode in [Mode::Conventional, Mode::Alphonse] {
        let interp = interp(mode);
        interp.set_fuel(1000);
        let before = interp.steps();
        let err = interp.call("Spin", vec![]).unwrap_err();
        assert!(
            err.to_string().contains("execution fuel exhausted"),
            "{mode:?}: {err}"
        );
        // 1000 steps spend the fuel; the step that finds it empty counts
        // too.
        assert_eq!(interp.steps() - before, 1001, "{mode:?}");
        // Without new fuel the next call fails on its first step.
        let before = interp.steps();
        let err = interp.call("SumTo", vec![Val::Int(1)]).unwrap_err();
        assert!(err.to_string().contains("fuel"), "{mode:?}: {err}");
        assert_eq!(interp.steps() - before, 1, "{mode:?}");
        // Refuelling resumes execution with the same per-step charge.
        interp.set_fuel(57);
        assert_eq!(steps_of(&interp, "SumTo", 10), 57, "{mode:?}");
        let err = interp.call("SumTo", vec![Val::Int(1)]).unwrap_err();
        assert!(err.to_string().contains("fuel"), "{mode:?}: {err}");
    }
}

#[test]
fn an_error_in_a_memo_body_uncaches_the_instance() {
    let interp = interp(Mode::Alphonse);
    let rt = interp
        .runtime()
        .expect("Alphonse mode has a runtime")
        .clone();
    let err = interp.call("Outer", vec![Val::Int(10)]).unwrap_err();
    assert!(err.to_string().contains("DIV by zero"), "{err}");
    // Both the failing instance and its caller were forgotten: the repeat
    // call re-executes both instead of replaying a sentinel.
    let before = rt.stats();
    let err = interp.call("Outer", vec![Val::Int(10)]).unwrap_err();
    assert!(err.to_string().contains("DIV by zero"), "{err}");
    let d = rt.stats().delta_since(&before);
    assert_eq!(
        (d.calls, d.memo_probes, d.cache_hits, d.executions),
        (2, 2, 0, 2)
    );
    // Once the state is repaired, the answer is computed and then cached.
    interp.set_global("d", Val::Int(5)).unwrap();
    let before = rt.stats();
    assert_eq!(
        interp.call("Outer", vec![Val::Int(10)]).unwrap(),
        Val::Int(3)
    );
    let d = rt.stats().delta_since(&before);
    assert_eq!((d.calls, d.cache_hits, d.executions), (2, 0, 2));
    let before = rt.stats();
    assert_eq!(
        interp.call("Outer", vec![Val::Int(10)]).unwrap(),
        Val::Int(3)
    );
    let d = rt.stats().delta_since(&before);
    assert_eq!((d.calls, d.cache_hits, d.executions), (1, 1, 0));
}
