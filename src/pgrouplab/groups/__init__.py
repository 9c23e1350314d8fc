from .cayley import (
    CayleyGroup,
    direct_product,
    quotient_group,
    subgroup_as_group,
)
from .families import (
    abelian_of_type,
    c2sq_semidirect_c4,
    c4_semidirect_c4,
    central_product,
    cyclic,
    dihedral,
    extraspecial,
    metacyclic,
    modular_group,
    quaternion,
    semidihedral,
    semidirect_product,
    ut_group,
    wreath_cp_cp,
)
from .aut import (
    are_isomorphic,
    aut_is_p_group,
    aut_order,
    frattini_action_kernel_order,
    macdonald_aut_order,
    minimal_generating_tuple,
    sylow_symmetric_aut_order,
    winter_aut_order,
)
from .catalog import (
    CensusRow,
    catalog,
    catalog_orders,
    census,
    fingerprint,
    parse_catalog,
    write_catalog,
)
