//! Semantic checks on declarations: duplicate and unknown names,
//! inheritance cycles, and `main`. The checks inside function bodies —
//! name resolution, arity, `self` and loop placement — run as each body is
//! lowered ([`crate::lower`]), in the order they would run here.

use std::collections::{HashMap, HashSet};

use crate::ast::Program;
use crate::diag::{CompileError, Pos};

/// The program's classes and free functions by name.
pub(crate) struct Declarations<'src> {
    /// Class name → declaration index.
    pub(crate) classes: HashMap<&'src str, usize>,
    /// Free function name → declaration index.
    pub(crate) functions: HashMap<&'src str, usize>,
}

/// Checks a parsed program's declarations and indexes them by name.
///
/// # Errors
///
/// Returns the first violation with its source position.
pub(crate) fn declarations<'src>(
    program: &Program<'src>,
) -> Result<Declarations<'src>, CompileError> {
    let mut classes = HashMap::with_capacity(program.classes.len());
    for (i, class) in program.classes.iter().enumerate() {
        if classes.insert(class.name, i).is_some() {
            return Err(CompileError::sema(
                class.pos,
                format!("duplicate class `{}`", class.name),
            ));
        }
    }
    let parent = |i: usize| {
        let name = program.classes[i].parent?;
        classes.get(name).copied()
    };
    for (i, class) in program.classes.iter().enumerate() {
        if let Some(parent) = class.parent {
            if !classes.contains_key(parent) {
                return Err(CompileError::sema(
                    class.pos,
                    format!("unknown superclass `{parent}`"),
                ));
            }
        }
        // A chain with more links than there are classes revisits one.
        let (mut cur, mut links) = (i, 0);
        while let Some(p) = parent(cur) {
            links += 1;
            if links > program.classes.len() {
                return Err(CompileError::sema(
                    class.pos,
                    format!("inheritance cycle through `{}`", class.name),
                ));
            }
            cur = p;
        }
    }
    let mut own = HashSet::new();
    for class in &program.classes {
        own.clear();
        if let Some(field) = class.fields.iter().find(|f| !own.insert(**f)) {
            return Err(CompileError::sema(
                class.pos,
                format!("duplicate field `{field}` in class `{}`", class.name),
            ));
        }
        own.clear();
        if let Some(m) = class.methods.iter().find(|m| !own.insert(m.name)) {
            return Err(CompileError::sema(
                m.pos,
                format!("duplicate method `{}` in class `{}`", m.name, class.name),
            ));
        }
    }
    let mut functions = HashMap::with_capacity(program.functions.len());
    for (i, f) in program.functions.iter().enumerate() {
        if functions.insert(f.name, i).is_some() {
            return Err(CompileError::sema(
                f.pos,
                format!("duplicate function `{}`", f.name),
            ));
        }
    }
    Ok(Declarations { classes, functions })
}

/// The index of the nullary `main` function, checked once every body has
/// passed.
///
/// # Errors
///
/// Returns an error if there is no `main` or it takes parameters.
pub(crate) fn main_function(
    program: &Program<'_>,
    decls: &Declarations<'_>,
) -> Result<usize, CompileError> {
    let Some(&main) = decls.functions.get("main") else {
        return Err(CompileError::sema(
            Pos::default(),
            "program has no `main` function",
        ));
    };
    if !program.functions[main].params.is_empty() {
        return Err(CompileError::sema(
            Pos::default(),
            "`main` must take no parameters",
        ));
    }
    Ok(main)
}

#[cfg(test)]
mod tests {
    use crate::diag::CompileError;

    fn check_src(src: &str) -> Result<(), CompileError> {
        crate::compile(src).map(drop)
    }

    #[test]
    fn accepts_valid_program() {
        check_src(
            "class A { field x; method bump(by) { self.x = self.x + by; } }
             fn main() { var a = new A; a.bump(2); print(a.x); }",
        )
        .unwrap();
    }

    #[test]
    fn requires_main() {
        let e = check_src("fn helper() {}").unwrap_err();
        assert!(e.message.contains("main"));
    }

    #[test]
    fn rejects_undeclared_variable() {
        let e = check_src("fn main() { print(x); }").unwrap_err();
        assert!(e.message.contains("undeclared variable `x`"));
    }

    #[test]
    fn rejects_bad_arity() {
        let e = check_src("fn f(a, b) {} fn main() { f(1); }").unwrap_err();
        assert!(e.message.contains("takes 2"));
    }

    #[test]
    fn rejects_unknown_method_and_field() {
        assert!(check_src("class A { field x; } fn main() { var a = new A; a.nope(); }").is_err());
        assert!(
            check_src("class A { field x; } fn main() { var a = new A; print(a.y); }").is_err()
        );
    }

    #[test]
    fn rejects_self_outside_method() {
        let e = check_src("fn main() { print(self); }").unwrap_err();
        assert!(e.message.contains("self"));
    }

    #[test]
    fn rejects_break_outside_loop() {
        assert!(check_src("fn main() { break; }").is_err());
        assert!(check_src("fn main() { while (true) { break; } }").is_ok());
    }

    #[test]
    fn rejects_inheritance_cycle() {
        let e = check_src("class A : B {} class B : A {} fn main() {}").unwrap_err();
        assert!(e.message.contains("cycle"));
    }

    #[test]
    fn rejects_duplicate_declarations() {
        assert!(check_src("fn f() {} fn f() {} fn main() {}").is_err());
        assert!(check_src("class A {} class A {} fn main() {}").is_err());
        assert!(check_src("class A { field x; field x; } fn main() {}").is_err());
        assert!(check_src("fn main() { var x = 1; var x = 2; }").is_err());
    }

    #[test]
    fn block_scoping_allows_shadowing_in_inner_block() {
        check_src("fn main() { var x = 1; if (true) { var x = 2; print(x); } print(x); }").unwrap();
    }

    #[test]
    fn main_must_be_nullary() {
        let e = check_src("fn main(x) {}").unwrap_err();
        assert!(e.message.contains("no parameters"));
    }
}
