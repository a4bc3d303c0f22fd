#![allow(clippy::print_stdout)]
fn noisy() {
    println!("x");
}
