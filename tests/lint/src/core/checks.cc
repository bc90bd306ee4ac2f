// tacsim-lint fixture: seeded raw-assert and banned-include violations.
#include <cassert>
#include <random> // tacsim-lint: allow(banned-include) fixture: engine used only to seed a reviewed test table
namespace fix {
inline int
positive(int x)
{
    assert(x > 0);
    static_assert(sizeof(int) >= 4, "static_assert is compile-time");
    return x;
}
// tacsim-lint: allow(raw-assert) fixture: debug-only sanity check, reviewed
inline void nonZero(int x) { assert(x != 0); }
} // namespace fix
