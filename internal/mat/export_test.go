package mat

// KernelPaths exposes kernelPaths to the external tests of this package.
var KernelPaths = kernelPaths
