//~ path: crates/core/src/nnc.rs
// Everything inside the raw string below is inert; if the lexer loses
// track of it, phantom diagnostics appear and the line anchors shift.
const RAW: &str = r##"
a.key == 0.5 && xs.to_vec()
"# not the end either
"##;
/* nested /* block comment */ with xs.to_vec() and d == 0.0 inside */
const LIFETIMES: fn(&'static str) -> char = |_x: &'static str| 'a';
fn seeded(a: f64) -> bool {
    let _c = 'x';
    a == 0.5
}

//~ expect: no-float-eq-in-kernels @ 12
