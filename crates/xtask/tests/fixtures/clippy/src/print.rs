//! Library code never prints: reporting belongs to the binary leaves.

pub fn report(x: f64) {
    println
        !("x = {x}");
    print!("x");
    eprintln!("x = {x}");
    eprint!("x");
}

//~ expect: clippy::print_stdout @ 4
//~ expect: clippy::print_stdout @ 6
//~ expect: clippy::print_stderr @ 7
//~ expect: clippy::print_stderr @ 8
