//! A tour of the SuperGlue IDL and compiler: parse an interface
//! description, inspect the descriptor-resource model, the state
//! machine's recovery walks, the fired template–predicate pairs, and a
//! slice of the generated stub source.
//!
//! Run with `cargo run -p sg-bench --example idl_tour`.

use superglue_sm::State;

const LOCK_IDL: &str = r#"
// A lock service: blocking, solo descriptors.
service_global_info = {
        desc_block = true
};

sm_transition(lock_alloc,   lock_take);
sm_transition(lock_take,    lock_release);
sm_transition(lock_release, lock_take);
sm_transition(lock_release, lock_free);
sm_transition(lock_alloc,   lock_free);

sm_creation(lock_alloc);
sm_terminal(lock_free);
sm_block(lock_take);
sm_wakeup(lock_release);
sm_recover_via(lock_release, lock_alloc);
sm_recover_block(lock_take, lock_restore);

desc_data_retval(long, lockid)
lock_alloc(componentid_t compid);
int lock_take(componentid_t compid, desc(long lockid));
int lock_release(componentid_t compid, desc(long lockid));
int lock_restore(componentid_t compid, desc(long lockid), long owner);
int lock_free(componentid_t compid, desc(long lockid));
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Front end: lex, parse, validate, lower to the formal models.
    let spec = superglue_idl::compile_interface("lock", LOCK_IDL)?;
    println!("interface `{}`:", spec.name);
    println!("  model: {:?}", spec.model);
    println!(
        "  mechanisms (SIII-C): {:?}",
        superglue_compiler::ModelPredicates::of(&spec).mechanisms()
    );
    println!("  IDL size: {} LOC", superglue_idl::idl_loc(LOCK_IDL));

    // The state machine and its precomputed shortest recovery walks.
    println!("\nrecovery walks (shortest path from s0 to each state):");
    for (i, f) in spec.fns.iter().enumerate() {
        let fid = superglue_sm::FnId(i as u32);
        match spec.machine.recovery_walk(State::After(fid)) {
            Ok(walk) => {
                let names: Vec<&str> = walk
                    .iter()
                    .map(|&w| spec.machine.function_name(w))
                    .collect();
                println!("  after {:<14} -> replay [{}]", f.name, names.join(", "));
            }
            Err(_) => println!("  after {:<14} -> (terminal or unreachable)", f.name),
        }
    }

    // Back end: the template–predicate network.
    let out = superglue_compiler::compile(&spec);
    println!(
        "\ncompiler: {} of the {} template-predicate pairs fired",
        out.templates_used.len(),
        superglue_compiler::templates::TEMPLATE_COUNT
    );
    println!(
        "generated {} LOC of stub code from {} LOC of IDL",
        out.generated_loc(),
        superglue_idl::idl_loc(LOCK_IDL)
    );

    println!("\nfirst lines of the generated client stub:");
    for line in out.client_source.lines().take(12) {
        println!("  | {line}");
    }
    Ok(())
}
