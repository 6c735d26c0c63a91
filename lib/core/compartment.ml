type criticality = Critical | Important | Best_effort

type t = {
  c_name : string;
  c_ep : Endpoint.t;
  c_policy : Policy.t;
  c_budget : int option;
  c_criticality : criticality;
}

let make ?budget ?(criticality = Important) ?name ep policy =
  let c_name =
    match name with
    | Some n -> n
    | None -> if Endpoint.is_server ep then Endpoint.server_name ep
              else Printf.sprintf "user%d" ep
  in
  { c_name; c_ep = ep; c_policy = policy; c_budget = budget;
    c_criticality = criticality }

let name t = t.c_name
let ep t = t.c_ep
let policy t = t.c_policy
let budget t = t.c_budget
let criticality t = t.c_criticality
