"""treegibbs: Gibbs data, countable Markov chains, drift certificates and
effective orbit counting for edge-indexed quotient graphs of trees."""

__version__ = "0.1.0"

from .graph import (  # noqa: F401
    FunnelSpec,
    IndexedGraph,
    OrderGrading,
    TailSpec,
    ValidationReport,
    edge_multiplicity,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    length_spectrum_period,
    lift_degree,
    materialize,
    propagate_orders,
    validate_graph,
)
from .gibbs import (  # noqa: F401
    GibbsData,
    Potential,
    compute_gibbs,
    critical_exponent,
    cusp_exponent_bound,
    potential_from_json,
    shadow_vector,
    transfer_matrix,
)
from .chain import (  # noqa: F401
    MarkovChain,
    TabooTable,
    build_chain,
    check_markov_property,
    correlation_decay,
    counterexample_chain,
    cyclic_classes,
    first_passage,
    mean_return_time,
    mixing_rate_estimate,
    periodic_classes,
    taboo_probability,
)
from .wsg import (  # noqa: F401
    DriftCertificate,
    degradation_probe,
    lemma_bound_check,
    search_certificate,
    tail_certificate,
    verify_certificate,
)
from .counting import (  # noqa: F401
    BiregularParams,
    CountReport,
    biregular_params,
    error_decay_report,
    main_term,
    mgamma_ball_measure,
    orbit_oracle,
    renewal_constant,
    shadow_measure,
    sphere_size,
)
from .cover import build_cover_ball, cover_census  # noqa: F401
