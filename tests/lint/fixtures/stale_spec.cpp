// Lint-test fixture: registry spec string literals, valid and stale.
const char* fixture_specs[] = {
    "pgd:steps=7",               // valid: parses through AttackRegistry
    "pgd:stps=7",                // stale: typo'd knob
    "xbar:rmn=1e5",              // stale: typo'd knob
    "smooth:sigma=abc",          // stale: bad number
    "not_a_registry_key:opt=1",  // skipped: key in no registry
    "tiny+corrupt:kind=melt,sev=1",    // stale: unknown corruption kind
    "sram:vdd=0.6+smooth:sigmaa=0.25",  // stale: typo'd defense knob
    "ideal+smooth:sigma=0.25",          // valid: hw+defense arm
    "xbar:rmin=1e+5",                   // valid: numeric '+' is no wrapper
};
