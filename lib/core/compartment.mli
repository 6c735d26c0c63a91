(** A compartment: one isolated component plus its recovery contract.

    OSIRIS treats the recovery policy as a per-component choice
    (Section VII discusses composing policies per OS component); a
    compartment binds an endpoint to the policy it runs under, an
    optional restart budget RS enforces, and a criticality class used
    for spec validation and reporting. Compartments are pure
    description — {!Sysconf} aggregates them into the spec that
    [System.build] consumes, and the kernel resolves each process to
    its compartment's policy once at boot. *)

type criticality =
  | Critical      (** system is useless without it; must be recoverable *)
  | Important     (** default: recovered on crash, no special claim *)
  | Best_effort   (** losing it degrades but does not doom the system *)

type t = {
  c_name : string;
  c_ep : Endpoint.t;
  c_policy : Policy.t;
  c_budget : int option;
      (** max completed restarts before RS performs a controlled
          shutdown instead of restarting again; [None] = unlimited *)
  c_criticality : criticality;
}

val make :
  ?budget:int -> ?criticality:criticality -> ?name:string ->
  Endpoint.t -> Policy.t -> t
(** [make ep policy] — the name defaults to the endpoint's server name
    ("pm", "vfs", ...), criticality to [Important], budget to
    unlimited. *)

val name : t -> string
val ep : t -> Endpoint.t
val policy : t -> Policy.t
val budget : t -> int option
val criticality : t -> criticality
