//! The two serving assemblies the `serve-*` workloads drive.
//!
//! The untraced run uses the library's own [`Deployment`].  The traced run
//! uses [`Traced`], an assembly built like `Deployment::build` from the same
//! public parts, except that the `KeyProvider` and `ModelFetcher` handed to
//! `SemirtInstance::launch` are timing wrappers, and each request is split
//! into its client encrypt, enclave handling and client decrypt calls so
//! that each can be timed.  It takes the same locks as `Deployment::infer`,
//! so two clients contend on it as they do on the library.  Both sit behind [`Serving`], so a workload's
//! code is the same in both runs.

use crate::trace::Tracer;
use parking_lot::Mutex;
use rand::RngCore;
use sesemi::deployment::{DeploymentError, InferenceOutcome, OwnerHandle, UserHandle};
use sesemi::{Deployment, FunctionHandle};
use sesemi_crypto::aead::AeadKey;
use sesemi_crypto::rng::SessionRng;
use sesemi_enclave::attest::{AttestationAuthority, AttestationScheme};
use sesemi_enclave::{
    CodeIdentity, Enclave, EnclaveConfig, Measurement, QuoteVerifier, SgxPlatform,
};
use sesemi_inference::{Framework, ModelId, ModelKind};
use sesemi_keyservice::service::KeyService;
use sesemi_keyservice::{OwnerClient, PartyId, UserClient};
use sesemi_runtime::provider::encrypt_model;
use sesemi_runtime::{
    InMemoryModelStore, InferenceRequest, KeyProvider, KeyServiceProvider, ModelFetcher,
    RuntimeError, SemirtConfig, SemirtInstance,
};
use sesemi_sim::SimDuration;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const MB: u64 = 1024 * 1024;
/// Every benchmark function is a TVM SeMIRT function with two TCS.  All of
/// them share one configuration and hence one measurement, so a grant made
/// for one function covers a freshly deployed replacement too.
const FUNCTION_TCS: usize = 2;
const FUNCTION_ENCLAVE_BYTES: u64 = 256 * MB;

/// What a workload needs from a serving assembly.
pub trait Serving: Sync {
    type Owner;
    type User: Sync;

    fn register_owner(&mut self, name: &str) -> Self::Owner;
    fn register_user(&mut self, name: &str) -> Self::User;
    fn party(user: &Self::User) -> PartyId;
    fn publish(
        &mut self,
        owner: &mut Self::Owner,
        kind: ModelKind,
        scale: f64,
    ) -> Result<ModelId, DeploymentError>;
    /// Deploys one TVM function with [`FUNCTION_TCS`] TCS.
    fn deploy(&mut self) -> Result<FunctionHandle, DeploymentError>;
    fn grant(
        &mut self,
        owner: &mut Self::Owner,
        model: &ModelId,
        function: &FunctionHandle,
        user: PartyId,
    ) -> Result<(), DeploymentError>;
    fn authorize(
        &mut self,
        user: &mut Self::User,
        model: &ModelId,
        function: &FunctionHandle,
    ) -> Result<(), DeploymentError>;
    fn input_dim(&self, model: &ModelId) -> usize;
    /// One request: client encrypt, enclave handling, client decrypt.
    fn infer(
        &self,
        user: &Self::User,
        function: &FunctionHandle,
        model: &ModelId,
        features: &[f32],
    ) -> Result<InferenceOutcome, DeploymentError>;
    fn instance(&self, function: &FunctionHandle) -> Arc<SemirtInstance>;
    /// `(provisioning exchanges, refused exchanges)` so far; `(0, 0)` for
    /// an assembly that does not count them.
    fn provision_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Serving for Deployment {
    type Owner = OwnerHandle;
    type User = UserHandle;

    fn register_owner(&mut self, name: &str) -> OwnerHandle {
        Deployment::register_owner(self, name)
    }

    fn register_user(&mut self, name: &str) -> UserHandle {
        Deployment::register_user(self, name)
    }

    fn party(user: &UserHandle) -> PartyId {
        user.party()
    }

    fn publish(
        &mut self,
        owner: &mut OwnerHandle,
        kind: ModelKind,
        scale: f64,
    ) -> Result<ModelId, DeploymentError> {
        owner.publish_model(self, kind, scale)
    }

    fn deploy(&mut self) -> Result<FunctionHandle, DeploymentError> {
        self.deploy_function(Framework::Tvm, FUNCTION_TCS)
    }

    fn grant(
        &mut self,
        owner: &mut OwnerHandle,
        model: &ModelId,
        function: &FunctionHandle,
        user: PartyId,
    ) -> Result<(), DeploymentError> {
        owner.grant_access(self, model, function, user)
    }

    fn authorize(
        &mut self,
        user: &mut UserHandle,
        model: &ModelId,
        function: &FunctionHandle,
    ) -> Result<(), DeploymentError> {
        user.authorize(self, model, function)
    }

    fn input_dim(&self, model: &ModelId) -> usize {
        self.model_input_dim(model).expect("model was published")
    }

    fn infer(
        &self,
        user: &UserHandle,
        function: &FunctionHandle,
        model: &ModelId,
        features: &[f32],
    ) -> Result<InferenceOutcome, DeploymentError> {
        Deployment::infer(self, user, function, model, features)
    }

    fn instance(&self, function: &FunctionHandle) -> Arc<SemirtInstance> {
        Deployment::instance(self, function).expect("function was deployed")
    }
}

/// `KeyProvider` wrapper: times every provisioning exchange and counts the
/// refused ones.
struct TimedKeys {
    inner: KeyServiceProvider,
    tracer: Arc<Tracer>,
    provisions: AtomicU64,
    refused: AtomicU64,
}

impl KeyProvider for TimedKeys {
    fn fetch_keys(
        &self,
        enclave: &Enclave,
        user: PartyId,
        model: &ModelId,
    ) -> Result<(AeadKey, AeadKey, SimDuration), RuntimeError> {
        let out = self.tracer.span("keyservice.provision", || {
            self.inner.fetch_keys(enclave, user, model)
        });
        self.provisions.fetch_add(1, Ordering::Relaxed);
        if out.is_err() {
            self.refused.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// `ModelFetcher` wrapper: times every encrypted-model fetch.
struct TimedStore {
    inner: InMemoryModelStore,
    tracer: Arc<Tracer>,
}

impl ModelFetcher for TimedStore {
    fn fetch_encrypted_model(
        &self,
        model: &ModelId,
    ) -> Result<(Vec<u8>, SimDuration), RuntimeError> {
        self.tracer.span("storage.model_fetch", || {
            self.inner.fetch_encrypted_model(model)
        })
    }
}

pub struct TracedOwner {
    name: String,
    client: OwnerClient,
    rng: SessionRng,
}

pub struct TracedUser {
    party: PartyId,
    client: UserClient,
    request_keys: HashMap<(ModelId, Measurement), AeadKey>,
    rng: SessionRng,
}

struct TracedFunction {
    instance: Arc<SemirtInstance>,
    next_worker: AtomicUsize,
}

/// The traced serving assembly (see the module documentation).
pub struct Traced {
    platform: SgxPlatform,
    authority: Arc<AttestationAuthority>,
    verifier: QuoteVerifier,
    keyservice: Arc<KeyService>,
    keys: Arc<TimedKeys>,
    store: Arc<TimedStore>,
    rng: SessionRng,
    input_dims: HashMap<ModelId, usize>,
    /// Behind a mutex, as in `Deployment`: every request takes it to find
    /// its function.
    functions: Mutex<HashMap<usize, TracedFunction>>,
    tracer: Arc<Tracer>,
}

impl Traced {
    /// Builds the assembly the way `DeploymentBuilder::build` does: one SGX2
    /// node, an attestation authority, the KeyService enclave and an empty
    /// model store.
    pub fn build(seed: u64, tracer: Arc<Tracer>) -> Self {
        let platform = SgxPlatform::paper_sgx2_node("node-0");
        let authority = AttestationAuthority::new(seed);
        authority.register_platform("node-0", AttestationScheme::EcdsaDcap);
        let verifier = authority.verifier();
        let ks_enclave = Enclave::launch(
            &platform,
            &authority,
            CodeIdentity::new("keyservice", b"sesemi keyservice v1".to_vec(), "1.0"),
            EnclaveConfig::new(64 * MB, 16),
            1,
        )
        .expect("KeyService enclave fits on a fresh node")
        .0;
        let keyservice = Arc::new(KeyService::new(Arc::new(ks_enclave), verifier.clone()));
        let keys = Arc::new(TimedKeys {
            inner: KeyServiceProvider::new(
                Arc::clone(&keyservice),
                verifier.clone(),
                keyservice.measurement(),
                seed ^ 0xBEEF,
            ),
            tracer: Arc::clone(&tracer),
            provisions: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        });
        let store = Arc::new(TimedStore {
            inner: InMemoryModelStore::new(),
            tracer: Arc::clone(&tracer),
        });
        Traced {
            platform,
            authority,
            verifier,
            keyservice,
            keys,
            store,
            rng: SessionRng::from_seed(seed),
            input_dims: HashMap::new(),
            functions: Mutex::new(HashMap::new()),
            tracer,
        }
    }

    fn connect_identity(&mut self) -> (AeadKey, SessionRng) {
        let identity_key = AeadKey::generate(&mut self.rng);
        let handle_rng = SessionRng::from_seed(self.rng.next_u64());
        (identity_key, handle_rng)
    }
}

impl Serving for Traced {
    type Owner = TracedOwner;
    type User = TracedUser;

    fn register_owner(&mut self, name: &str) -> TracedOwner {
        let (identity_key, rng) = self.connect_identity();
        let mut client = OwnerClient::connect(
            &self.keyservice,
            &self.verifier,
            &self.keyservice.measurement(),
            identity_key,
            &mut self.rng,
        )
        .expect("KeyService accepts owner connections");
        client
            .register(&self.keyservice)
            .expect("registration always succeeds");
        TracedOwner {
            name: name.to_string(),
            client,
            rng,
        }
    }

    fn register_user(&mut self, _name: &str) -> TracedUser {
        let (identity_key, rng) = self.connect_identity();
        let mut client = UserClient::connect(
            &self.keyservice,
            &self.verifier,
            &self.keyservice.measurement(),
            identity_key,
            &mut self.rng,
        )
        .expect("KeyService accepts user connections");
        let party = client
            .register(&self.keyservice)
            .expect("registration always succeeds");
        TracedUser {
            party,
            client,
            request_keys: HashMap::new(),
            rng,
        }
    }

    fn party(user: &TracedUser) -> PartyId {
        user.party
    }

    fn publish(
        &mut self,
        owner: &mut TracedOwner,
        kind: ModelKind,
        scale: f64,
    ) -> Result<ModelId, DeploymentError> {
        let model_id = ModelId::new(format!("{}/{}", owner.name, kind.default_id()));
        let graph = kind.generate(scale, &mut owner.rng);
        let model_key = AeadKey::generate(&mut owner.rng);
        owner
            .client
            .add_model_key(&self.keyservice, &model_id, &model_key, &mut owner.rng)?;
        let encrypted = encrypt_model(&model_id, &graph.to_bytes(), &model_key, &mut owner.rng);
        self.store.inner.put(model_id.clone(), encrypted);
        self.input_dims.insert(model_id.clone(), graph.input_dim);
        Ok(model_id)
    }

    fn deploy(&mut self) -> Result<FunctionHandle, DeploymentError> {
        let seed = self.rng.next_u64();
        let (instance, _init_latency) = SemirtInstance::launch(
            &self.platform,
            &self.authority,
            SemirtConfig::new(Framework::Tvm, FUNCTION_ENCLAVE_BYTES, FUNCTION_TCS),
            Arc::clone(&self.keys) as Arc<dyn KeyProvider>,
            Arc::clone(&self.store) as Arc<dyn ModelFetcher>,
            1,
            seed,
        )?;
        let mut functions = self.functions.lock();
        let id = functions.len();
        let measurement = instance.measurement();
        functions.insert(
            id,
            TracedFunction {
                instance: Arc::new(instance),
                next_worker: AtomicUsize::new(0),
            },
        );
        Ok(FunctionHandle {
            id,
            measurement,
            framework: Framework::Tvm,
        })
    }

    fn grant(
        &mut self,
        owner: &mut TracedOwner,
        model: &ModelId,
        function: &FunctionHandle,
        user: PartyId,
    ) -> Result<(), DeploymentError> {
        owner
            .client
            .grant_access(
                &self.keyservice,
                model,
                function.measurement,
                user,
                &mut owner.rng,
            )
            .map_err(DeploymentError::from)
    }

    fn authorize(
        &mut self,
        user: &mut TracedUser,
        model: &ModelId,
        function: &FunctionHandle,
    ) -> Result<(), DeploymentError> {
        let request_key = AeadKey::generate(&mut user.rng);
        user.client.add_request_key(
            &self.keyservice,
            model,
            function.measurement,
            &request_key,
            &mut user.rng,
        )?;
        user.request_keys
            .insert((model.clone(), function.measurement), request_key);
        Ok(())
    }

    fn input_dim(&self, model: &ModelId) -> usize {
        self.input_dims[model]
    }

    fn infer(
        &self,
        user: &TracedUser,
        function: &FunctionHandle,
        model: &ModelId,
        features: &[f32],
    ) -> Result<InferenceOutcome, DeploymentError> {
        // The same steps, locks and per-request nonce source as
        // `Deployment::infer`.
        let request_key = user
            .request_keys
            .get(&(model.clone(), function.measurement))
            .cloned()
            .ok_or_else(|| DeploymentError::NotAuthorized(format!("no request key for {model}")))?;
        let functions = self.functions.lock();
        let deployed = functions
            .get(&function.id)
            .ok_or(DeploymentError::UnknownFunction(function.id))?;
        let instance = Arc::clone(&deployed.instance);
        let worker = deployed.next_worker.fetch_add(1, Ordering::SeqCst) % FUNCTION_TCS;
        drop(functions);
        let mut rng = SessionRng::from_seed(
            u64::from_le_bytes(request_key.as_bytes()[..8].try_into().expect("8 bytes"))
                ^ features.len() as u64,
        );
        let request = self.tracer.span("crypto.req_encrypt", || {
            InferenceRequest::encrypt(user.party, model.clone(), features, &request_key, &mut rng)
        });
        let (response, report) = self.tracer.span("runtime.handle", || {
            instance.handle_request(worker, &request)
        })?;
        let prediction = self
            .tracer
            .span("crypto.resp_decrypt", || response.decrypt(&request_key))?;
        Ok(InferenceOutcome { prediction, report })
    }

    fn instance(&self, function: &FunctionHandle) -> Arc<SemirtInstance> {
        Arc::clone(&self.functions.lock()[&function.id].instance)
    }

    fn provision_counts(&self) -> (u64, u64) {
        (
            self.keys.provisions.load(Ordering::Relaxed),
            self.keys.refused.load(Ordering::Relaxed),
        )
    }
}

/// Sum of `(quotes generated, ecalls served, enclave heap bytes)` over the
/// enclaves of `functions`.
pub fn enclave_counters<S: Serving>(stack: &S, functions: &[FunctionHandle]) -> (u64, u64, u64) {
    functions.iter().fold((0, 0, 0), |acc, function| {
        let instance = stack.instance(function);
        let enclave = instance.enclave();
        (
            acc.0 + enclave.quotes_generated(),
            acc.1 + enclave.ecalls_served(),
            acc.2 + instance.enclave_heap_used(),
        )
    })
}
