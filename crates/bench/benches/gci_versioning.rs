//! Ablation of the Section 6 environment-version optimisation: the meet
//! of two environments short-circuits when both carry the same version
//! tag. Disabling it forces point-wise equations for every application.

use rowpoly_bench::bench;
use rowpoly_core::{Options, Session};
use rowpoly_gen::generate_with_lines;

fn main() {
    for lines in [200usize, 400] {
        let (program, _) = generate_with_lines(lines, false, 42);
        bench(&format!("gci_versioning/with_version_tags/{lines}"), || {
            Session::new(Options::default())
                .infer_program(&program)
                .expect("checks")
        });
        bench(
            &format!("gci_versioning/without_version_tags/{lines}"),
            || {
                let opts = Options {
                    env_versions: false,
                    ..Options::default()
                };
                Session::new(opts).infer_program(&program).expect("checks")
            },
        );
    }
}
